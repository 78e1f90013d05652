"""Per-layer call counts and self times, taken from outside the package.

The tracer replaces selected public functions and methods of ``sheafbench``
with wrappers while it is installed and puts the originals back afterwards,
so nothing under ``src/`` changes and an untraced run pays nothing.  Each
wrapper records a span; a layer's self time is the span minus the spans of
traced calls made inside it.
"""
from __future__ import annotations

import inspect
import sys
from contextlib import contextmanager
from time import perf_counter

# layer name -> (module, attribute path) of every entry point counted under it
LAYERS = {
    "site.leq": [("site", "Basis.leq")],
    "site.down": [("site", "Basis.down")],
    "site.sieve_build": [("site", "Sieve.from_generators")],
    "site.sieve_restrict": [("site", "Sieve.restrict")],
    "site.sieve_contains": [("site", "Sieve.contains")],
    "site.validate": [("site", "CoveringSystem.validate")],
    "site.generated_cover": [("site", "GeneratedTopology.cover")],
    "site.axioms": [("site", "check_topology_axioms")],
    "spaces.bracket_cover": [("spaces", "BracketTopology.cover")],
    "spaces.build": [("spaces", "cantor_space"), ("spaces", "baire_space")],
    "double.cover": [("double", "DoubleTopology.cover")],
    "double.build": [("double", "build_double")],
    "points.passes_through": [("points", "Point.passes_through")],
    "forcing.force": [("forcing", "force")],
    "forcing.witness_sieve": [("forcing", "exists_witness_sieve")],
    "forcing.section_members": [("forcing", "section_members")],
    "forcing.classical_truth": [("forcing", "classical_truth")],
    "forcing.model": [("forcing", "standard_model")],
    "formulas.parse": [("formulas", "parse_formula")],
    "sheaves.make_section": [("sheaves", "make_section")],
    "sheaves.restrict_section": [("sheaves", "restrict_section")],
    "sheaves.restrict": [("sheaves", "ConstantPresheaf.restrict")],
    "sheaves.sections": [("sheaves", "ConstantPresheaf.sections")],
    "sheaves.sheaf_check": [("sheaves", "sheaf_check")],
    "rules.fan": [("rules", "fan_rule")],
    "rules.bar": [("rules", "bar_rule")],
    "rules.continuity": [("rules", "continuity_rule")],
    "rules.recheck": [("rules", "recheck_transcript")],
    "jsonio.load": [("jsonio", "load_json"), ("jsonio", "space_from_json"),
                    ("jsonio", "bar_from_json"), ("jsonio", "rel_from_json")],
    "jsonio.dump": [("jsonio", "dump_report"), ("jsonio", "jsonable")],
    "cli.main": [("cli", "main")],
}


class Tracer:
    """Installable call counter and span timer over :data:`LAYERS`.

    ``calls[layer]`` counts entries; ``self_s[layer]`` sums span time not
    covered by a nested traced span.  While :meth:`paused`, wrappers pass
    straight through, which keeps the benchmark's own oracle checks out of
    the numbers.
    """

    def __init__(self):
        self.calls = {name: 0 for name in LAYERS}
        self.self_s = {name: 0.0 for name in LAYERS}
        self._children = []  # child time accumulated per open span
        self._paused = False
        self._saved = []     # (owner, attribute, original static object)

    def _wrap(self, layer, fn):
        calls, self_s, children = self.calls, self.self_s, self._children

        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            children.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span = perf_counter() - start
                inner = children.pop()
                calls[layer] += 1
                self_s[layer] += span - inner
                if children:
                    children[-1] += span

        return traced

    def install(self) -> None:
        # the package's modules and the benchmark's own, which import from it
        modules = [m for _, m in sorted(sys.modules.items()) if m is not None]
        for layer, targets in LAYERS.items():
            for module_name, path in targets:
                owner = sys.modules[f"sheafbench.{module_name}"]
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                static = inspect.getattr_static(owner, attr)
                if outer:
                    fn = static.__func__ if isinstance(static, staticmethod) else static
                    wrapped = self._wrap(layer, fn)
                    if isinstance(static, staticmethod):
                        wrapped = staticmethod(wrapped)
                    self._saved.append((owner, attr, static))
                    setattr(owner, attr, wrapped)
                    continue
                # a module-level function is also bound in every module
                # that imported it; replace each binding
                wrapped = self._wrap(layer, static)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is static:
                            self._saved.append((module, name, static))
                            setattr(module, name, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextmanager
    def paused(self):
        was, self._paused = self._paused, True
        try:
            yield
        finally:
            self._paused = was
