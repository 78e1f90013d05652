"""Source-level guards on the package, its tests and the benchmark's use of it."""
import ast
import importlib
import importlib.util
import inspect
import pathlib

import sheafbench

PACKAGE = pathlib.Path(sheafbench.__file__).parent
TESTS = pathlib.Path(__file__).parent
BENCH = TESTS.parent / "perfbench"


def _tree(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, and with them any check they make
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _unused_imports(path: pathlib.Path) -> list:
    tree = _tree(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_every_imported_name_is_used():
    # __init__.py imports names to re-export them
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    modules += sorted(TESTS.glob("*.py"))
    assert [found for path in modules for found in _unused_imports(path)] == []


def _load(path: pathlib.Path):
    spec = importlib.util.spec_from_file_location(f"_bench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_resolves():
    # the tracer wraps these by name; a rename in the package would leave a
    # layer unmeasured without failing any test of the package itself
    missing = []
    for layer, targets in _load(BENCH / "tracer.py").LAYERS.items():
        for module_name, attribute_path in targets:
            owner = importlib.import_module(f"sheafbench.{module_name}")
            try:
                for part in attribute_path.split("."):
                    owner = inspect.getattr_static(owner, part)
            except AttributeError:
                missing.append((layer, module_name, attribute_path))
    assert missing == []


def _bench_bindings(tree: ast.Module) -> tuple:
    """Names a benchmark file takes from the package, and those it cannot."""
    bound, missing = {}, []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and (node.module or "").startswith("sheafbench")):
            continue
        module = importlib.import_module(node.module)
        for alias in node.names:
            if hasattr(module, alias.name):
                bound[alias.asname or alias.name] = getattr(module, alias.name)
            elif importlib.util.find_spec(f"{node.module}.{alias.name}") is not None:
                bound[alias.asname or alias.name] = importlib.import_module(
                    f"{node.module}.{alias.name}")
            else:
                missing.append(f"{node.module}.{alias.name}")
    return bound, missing


def _call_target(func, bound: dict):
    if isinstance(func, ast.Name):
        return bound.get(func.id)
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        owner = bound.get(func.value.id)
        if inspect.ismodule(owner):
            return getattr(owner, func.attr, None)
    return None


def test_every_package_name_and_keyword_the_benchmark_uses_exists():
    problems = []
    for path in sorted(BENCH.glob("*.py")):
        tree = _tree(path)
        bound, missing = _bench_bindings(tree)
        problems += [f"{path.name}: {name}" for name in missing]
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            target = _call_target(node.func, bound)
            if not callable(target) or any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords
            ):
                continue
            try:
                inspect.signature(target).bind(
                    *node.args, **{k.arg: k.value for k in node.keywords})
            except TypeError as err:
                problems.append(f"{path.name}:{node.lineno} {ast.unparse(node.func)}: {err}")
    assert problems == []


def _uses(path: pathlib.Path) -> list:
    """``(name, top-level definition it sits in or None)`` for every name read."""
    found = []
    for stmt in _tree(path).body:
        owner = stmt.name if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                found.append((node.id, owner))
            elif isinstance(node, ast.Attribute):
                found.append((node.attr, owner))
    return found


def test_every_public_name_has_a_caller_outside_the_tests():
    defined = {
        (path, stmt.name)
        for path in sorted(PACKAGE.glob("*.py"))
        for stmt in _tree(path).body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not stmt.name.startswith("_")
    }
    uses = {path: _uses(path) for path in sorted(PACKAGE.glob("*.py")) + sorted(BENCH.glob("*.py"))}
    uncalled = sorted(
        name for home, name in defined
        if not any(
            used == name and not (path == home and owner == name)
            for path, found in uses.items() for used, owner in found
        )
    )
    assert uncalled == []


def test_all_lists_exactly_the_names_the_package_imports():
    # a name removed from a module but left in __all__ would break
    # "from sheafbench import *" without failing any other test
    imported = {
        alias.asname or alias.name
        for node in _tree(PACKAGE / "__init__.py").body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert [name for name in sheafbench.__all__ if not hasattr(sheafbench, name)] == []
    assert sorted(sheafbench.__all__) == sorted(imported)
    assert len(set(sheafbench.__all__)) == len(sheafbench.__all__)


def _readers(attribute: str, paths) -> list:
    """``(file name, top-level definition)`` of every read of ``attribute``."""
    return sorted(
        (path.name, owner)
        for path in paths
        for stmt in _tree(path).body
        for owner in [getattr(stmt, "name", None)]
        for node in ast.walk(stmt)
        if isinstance(node, ast.Attribute) and node.attr == attribute
    )


# (module, top-level definition) allowed to ask a point for one prefix, and why
PASSES_THROUGH_CALLERS = {
    ("rules.py", "_recheck_fan"): "rechecks each recorded discharge point against its "
                                  "level member, one question per point",
}


def test_point_incidence_is_read_from_the_index():
    # "which points pass through this open" has one answer, points.incidence,
    # read off each point's prefix chain; scanning with passes_through elsewhere
    # would compute it a second way
    paths = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "points.py"]
    assert _readers("passes_through", paths) == sorted(PASSES_THROUGH_CALLERS)


# (module, top-level definition) allowed to check the covering axiom, and why
VALIDATE_CALLERS = {
    ("randomgen.py", "random_covering_system"): "repairs a seeded random system until "
                                                "it satisfies the axiom",
}


def test_only_outside_data_is_validated():
    # the tree spaces' families satisfy the covering axiom by construction,
    # a lemma the tests prove once; re-checking it at every build is waste
    assert _readers("validate", sorted(PACKAGE.glob("*.py"))) == sorted(VALIDATE_CALLERS)


# (module, top-level definition) allowed to build a covering system whose
# families it does not check or sort, and why that is safe
PACKED_CALLERS = {
    ("spaces.py", "_child_system"): "the children of each sequence, in canonical order",
    ("spaces.py", "_bracket_system"): "the uniform brackets of each sequence, in canonical order",
    ("double.py", "build_double"): "the inner families as D-opens, then the point opens "
                                   "through them, in canonical order",
}


def test_only_derived_systems_skip_the_constructor_checks():
    # data from outside the package goes through the validating constructor;
    # the tests prove the packed tables equal what it would build
    paths = sorted(PACKAGE.glob("*.py")) + sorted(BENCH.glob("*.py")) + sorted(TESTS.glob("*.py"))
    assert _readers("_packed", paths) == sorted(PACKED_CALLERS)


def _defaulted_parameters(path: pathlib.Path) -> list:
    """``(function, parameter, position or None)`` for each defaulted parameter
    of a public top-level function; keyword-only ones have no position."""
    found = []
    for stmt in _tree(path).body:
        if not isinstance(stmt, ast.FunctionDef) or stmt.name.startswith("_"):
            continue
        positional = stmt.args.posonlyargs + stmt.args.args
        first = len(positional) - len(stmt.args.defaults)
        found += [(stmt.name, arg.arg, index)
                  for index, arg in enumerate(positional) if index >= first]
        found += [(stmt.name, arg.arg, None)
                  for arg, default in zip(stmt.args.kwonlyargs, stmt.args.kw_defaults)
                  if default is not None]
    return found


def _called_name(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _passed_arguments(paths) -> set:
    """``(function name, keyword or position)`` for every argument some call passes.

    A call that takes a function as an argument, such as a timing wrapper,
    passes its keywords on to that function too.
    """
    passed = set()
    for path in paths:
        for node in ast.walk(_tree(path)):
            if not isinstance(node, ast.Call):
                continue
            names = [_called_name(node.func)] + [_called_name(a) for a in node.args]
            keywords = {k.arg for k in node.keywords if k.arg is not None}
            for name in filter(None, names):
                passed |= {(name, keyword) for keyword in keywords}
            for index, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred):
                    break
                passed.add((names[0], index))
    return passed


def test_every_defaulted_parameter_is_set_by_some_call():
    # a default that no caller ever overrides is a constant behind an
    # option: one more value to document and test for no behaviour
    paths = (sorted(PACKAGE.glob("*.py")) + sorted(BENCH.glob("*.py"))
             + sorted(BENCH.glob("tests/*.py")) + sorted(TESTS.glob("*.py")))
    passed = _passed_arguments(paths)
    unset = sorted(
        f"{path.name}:{function}({parameter})"
        for path in sorted(PACKAGE.glob("*.py"))
        for function, parameter, index in _defaulted_parameters(path)
        if (function, parameter) not in passed and (function, index) not in passed
    )
    assert unset == []


def _package_subclasses(cls) -> list:
    """Every subclass of ``cls`` defined in the package, at any remove."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "__main__":  # running it would start the CLI
            importlib.import_module(f"sheafbench.{path.stem}")
    found, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("sheafbench."):
                found.append(sub)
    return found


def test_every_topology_gives_one_kernel_and_inherits_the_cover_tests():
    # one production cover test per space kind: each kind defines ranks, and
    # cover and covered read it in the base class, so no kind forks them
    kinds = _package_subclasses(sheafbench.site.Topology)
    forks = [
        (sub.__name__, name)
        for sub in kinds
        for name, wanted in (("ranks", True), ("cover", False), ("covered", False))
        if (name in vars(sub)) != wanted
    ]
    assert kinds and forks == []


def test_forcing_answers_every_atom_with_a_zone():
    # one path: every clause but a conjunction is one set per (node, env);
    # the per-stage atoms live on only as the oracle's definitions
    tree = _tree(PACKAGE / "forcing.py")
    functions = {stmt.name: stmt for stmt in tree.body if isinstance(stmt, ast.FunctionDef)}
    assigned = {
        target.id
        for stmt in tree.body if isinstance(stmt, (ast.Assign, ast.AnnAssign))
        for target in (stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target])
        if isinstance(target, ast.Name)
    }
    assert "ATOMS" not in assigned | set(functions)
    assert [name for name in functions if name.endswith("_atom")] == []
    comprehensions = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    assert not any(isinstance(node, comprehensions) for node in ast.walk(functions["_evaluate"]))
    # the classical oracle of force-many shares no code with the zones
    named = {node.id for node in ast.walk(functions["classical_truth"]) if isinstance(node, ast.Name)}
    assert named.isdisjoint({"_atom_zone", "_forced"})


def test_restriction_reads_the_pieces_and_not_the_down_set():
    # restricting a section reads its pieces' masks; walking the down-set of
    # the new root would cost the whole fragment on every restriction
    tree = _tree(PACKAGE / "sheaves.py")
    restrict = next(stmt for stmt in tree.body
                    if isinstance(stmt, ast.FunctionDef) and stmt.name == "restrict_section")
    called = [_called_name(node.func) for node in ast.walk(restrict) if isinstance(node, ast.Call)]
    assert "_from_zones" in called and "down" not in called


# (module, top-level definition) allowed to build a basis's bit index
BITS_READERS = {
    ("sheaves.py", "ConstantPresheaf"): "sections as zone masks read off atom assignments",
    ("sheaves.py", "make_section"): "zone masks of covered sets, canonicalized",
    ("sheaves.py", "restrict_section"): "the pieces' down-set masks met with the new root's",
}


def test_only_the_sheaf_layer_builds_the_bit_index():
    # the workloads that never reach the sheaf layer never pay for the index
    assert _readers("bits", sorted(PACKAGE.glob("*.py"))) == sorted(BITS_READERS)
