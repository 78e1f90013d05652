"""Self-check suites shared by the command line and the acceptance battery.

Each suite runs one family of checks at a configurable scale and returns a
:class:`SuiteResult` carrying pass/fail, the number of instances checked,
and witnesses for every failure.  All randomness is seeded, so a suite with
the same arguments always checks the same instances in the same order.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from . import rules
from .brouwer import TreeQuotient, alt_baire_equiv_check, bo_sheaf_checks, enumerate_labelled, enumerate_trees
from .double import build_double
from .forcing import choice_amalgamation, cc_refine, classical_truth, force, standard_model
from .maps import one_point_space
from .points import Point, eventually_constant_points
from .randomgen import random_covering_system, random_formula, random_monotone_bar, random_preorder
from .sheaves import ConstantPresheaf, derived_sheaves, nat_sheaf, pure_density_check, section_map_bijection_check, sheaf_check, space_atoms
from .site import FormalSpace, GeneratedTopology, InductiveDefinition, Sieve, check_topology_axioms, element_key, inductive_close, set_compactness_witness, sieves_on
from .spaces import Bar, bar_from_generators, bar_to_sieve, baire_space, cantor_space, kfinite_subcover, u_bracket


@dataclass(frozen=True)
class SuiteResult:
    """Outcome of one suite: instance count, verdict, failure witnesses."""

    name: str
    passed: bool
    checked: int
    details: dict = field(default_factory=dict)
    witnesses: tuple = ()


def _result(name, checked, witnesses, **details) -> SuiteResult:
    return SuiteResult(
        name=name,
        passed=not witnesses,
        checked=checked,
        details=details,
        witnesses=tuple(witnesses),
    )


# ------------------------------------------------------------------ topology


def topology_suite(seed: int = 0, samples: int = 200, max_size: int = 8) -> SuiteResult:
    """Random covering systems must generate topologies satisfying the axioms."""
    rng = random.Random(seed)
    witnesses = []
    checked = 0
    for index in range(samples):
        basis = random_preorder(rng, rng.randint(1, max_size))
        system = random_covering_system(rng, basis)
        space = FormalSpace(basis, GeneratedTopology(system), system)
        report = check_topology_axioms(space, sieve_cap=16)
        checked += report.checked
        if not report.ok:
            witnesses.append(
                {
                    "system": index,
                    "maximality": report.maximality_failures,
                    "stability": report.stability_failures,
                    "local_character": report.local_character_failures,
                }
            )
    return _result("topology", checked, witnesses, systems=samples)


# -------------------------------------------------------------- compactness


def compactness_suite(depth: int = 4, generator_len: int = 3) -> SuiteResult:
    """Exhaustive monotone bars from leaf subsets against the brute oracle.

    Every subset of the level-``generator_len`` sequences generates a
    monotone bar; the bracket test's minimal depth must match a brute-force
    scan for the least uniform level, and the extracted finite subcover
    must revalidate.
    """
    space = cantor_space(depth)
    level = [u for u in space.basis.elements if len(u) == generator_len]
    witnesses = []
    checked = 0
    for bits in itertools.product((0, 1), repeat=len(level)):
        gens = {u for u, bit in zip(level, bits) if bit}
        bar = bar_from_generators(space, gens)
        sieve = bar_to_sieve(bar)
        verdict = space.topology.cover((), sieve)
        brute = rules.least_uniform_depth(bar)
        checked += 1
        if verdict.covered != (brute is not None):
            witnesses.append({"generators": sorted(gens), "verdict": verdict.covered, "brute": brute})
            continue
        if not verdict.covered:
            continue
        if verdict.depth != brute:
            witnesses.append({"generators": sorted(gens), "depth": verdict.depth, "brute": brute})
            continue
        subcover = kfinite_subcover(space, (), sieve)
        if not all(sieve.contains(v) for v in subcover) or not all(
            any(leaf[: len(v)] == v for v in subcover)
            for leaf in u_bracket(space, (), depth)
        ):
            witnesses.append({"generators": sorted(gens), "subcover": subcover})
    return _result("compactness", checked, witnesses, bars=2 ** len(level))


# ----------------------------------------------------------------- forcing


# Nat ranges below this bound in the forcing and truth suites' model and formulas
_N_MAX = 8


def _double_cantor_model():
    inner = cantor_space(3)
    double = build_double(inner, eventually_constant_points(2, 1))
    bar = bar_from_generators(inner, [u for u in inner.basis.elements if len(u) == 2])
    return double, standard_model(double, bar=bar, n_max=_N_MAX)


def forcing_suite(seed: int = 0, samples: int = 200) -> SuiteResult:
    """Monotonicity and local character of forcing over the Cantor double.

    For each random formula the forced zone is computed at every stage;
    the zone must be downward closed, and any stage covered by its forced
    part below must itself be in the zone.
    """
    double, model = _double_cantor_model()
    basis = double.basis
    rng = random.Random(seed)
    witnesses = []
    checked = 0
    for index in range(samples):
        formula = random_formula(rng, rng.randint(1, 4), n_max=_N_MAX)
        zone = {a for a in basis.elements if force(model, a, formula)}
        for a in zone:
            for b in basis.down(a):
                checked += 1
                if b not in zone:
                    witnesses.append({"formula": str(formula), "index": index,
                                      "kind": "monotonicity", "above": a, "below": b})
        for a in basis.elements:
            sieve = Sieve.from_generators(
                basis, a, [b for b in basis.down(a) if b in zone]
            )
            checked += 1
            if double.topology.cover(a, sieve).covered and a not in zone:
                witnesses.append({"formula": str(formula), "index": index,
                                  "kind": "local-character", "stage": a})
    return _result("forcing", checked, witnesses, formulas=samples)


def truth_suite(seed: int = 0, samples: int = 200) -> SuiteResult:
    """Forcing at a singleton stage must coincide with truth along the point."""
    double, model = _double_cantor_model()
    rng = random.Random(seed)
    formulas = [random_formula(rng, rng.randint(1, 4), n_max=_N_MAX) for _ in range(samples)]
    witnesses = []
    checked = 0
    for q in double.points:
        stage = double.singleton(q)
        for index, formula in enumerate(formulas):
            checked += 1
            forced = force(model, stage, formula)
            true = classical_truth(model, q, formula)
            if forced != true:
                witnesses.append({"point": q, "formula": str(formula),
                                  "index": index, "forced": forced, "truth": true})
    return _result("truth", checked, witnesses, points=len(double.points), formulas=samples)


# ------------------------------------------------------------ rule pipelines


def fan_suite(seed: int = 0, samples: int = 50, max_depth: int = 5) -> SuiteResult:
    """Fan extractions on random monotone bars against the brute uniform depth."""
    rng = random.Random(seed)
    witnesses = []
    checked = 0
    for index in range(samples):
        space = cantor_space(rng.randint(2, max_depth))
        bar = random_monotone_bar(rng, space)
        n, transcript = rules.fan_rule(bar)
        brute = rules.least_uniform_depth(bar)
        level = [v for v in space.basis.elements if len(v) == n]
        failed = rules.recheck_transcript(transcript)
        checked += 1
        if not all(bar.holds(v) for v in level) or n != brute or failed:
            witnesses.append({"index": index, "depth": space.depth, "n": n,
                              "brute": brute, "recheck": failed})
    return _result("fan", checked, witnesses, samples=samples)


def _inductive_completion(space, bar: Bar) -> Bar:
    elements = space.basis.elements
    child_rules = tuple(
        ([u + (i,) for i in range(space.branch)], u)
        for u in elements if len(u) < space.depth
    )
    holds = inductive_close(InductiveDefinition(elements, child_rules), filter(bar.holds, elements))
    return Bar(space, holds.__contains__, monotone=True, inductive=True)


def bar_suite(seed: int = 0, samples: int = 20, branch: int = 2, depth: int = 4) -> SuiteResult:
    """Bar inductions on inductive completions of random monotone bars."""
    rng = random.Random(seed)
    space = baire_space(branch, depth)
    witnesses = []
    checked = 0
    for index in range(samples):
        bar = _inductive_completion(space, random_monotone_bar(rng, space))
        verdict, transcript = rules.bar_rule(bar)
        failed = rules.recheck_transcript(transcript)
        base = frozenset(
            u for u in space.basis.elements if len(u) == depth and bar.holds(u)
        )
        step, trace = rules.inductive_closure_steps(space, base)
        checked += 1
        if not verdict or failed or step is None or () not in trace[-1]:
            witnesses.append({"index": index, "verdict": verdict,
                              "recheck": failed, "oracle_step": step})
    return _result("bar", checked, witnesses, samples=samples)


def _discontinuous_tables(points) -> list:
    return [
        ("limit", {q: Point((), q.tail) for q in points}),
        ("flipped-limit", {q: Point((), 1 - q.tail) for q in points}),
        ("read-past-window", {q: Point((), q.value(5)) for q in points}),
        ("limit-xor-head", {q: Point((), q.value(0) ^ q.tail) for q in points}),
        ("collapse-ones", {q: (q if q.tail == 0 else Point((), 1)) for q in points}),
    ]


def _random_continuous_table(rng, points, depth: int) -> dict:
    m = rng.randint(0, depth)
    images: dict = {}
    table = {}
    for q in points:
        key = q.prefix_of(m)
        if key not in images:
            images[key] = rng.choice(points)
        table[q] = images[key]
    return table


def _modulus_is_valid(points, table, alpha: Point, k: int, m: int) -> bool:
    window = alpha.prefix_of(m)
    image_window = table[alpha].prefix_of(k)
    return all(
        table[q].prefix_of(k) == image_window
        for q in points
        if q.prefix_of(m) == window
    )


def continuity_suite(seed: int = 0) -> SuiteResult:
    """Continuity extractions on named, random-continuous, and broken tables."""
    rng = random.Random(seed)
    depth = 3
    space = baire_space(2, depth)
    points = eventually_constant_points(2, depth + 1)
    named = [
        ("identity", {q: q for q in points}),
        ("shift", {q: (Point(q.prefix[1:], q.tail) if q.prefix else q) for q in points}),
    ]
    generated = [
        (f"random-{i}", _random_continuous_table(rng, points, depth))
        for i in range(10)
    ]
    witnesses = []
    checked = 0
    for label, table in named + generated:
        f, modulus, transcript = rules.continuity_rule(table, space)
        failed = rules.recheck_transcript(transcript)
        bad_modulus = [
            (q, k)
            for (q, k), m in modulus.items()
            if not _modulus_is_valid(points, table, q, k, m)
        ]
        # Agreement is observational at the truncation window: the model
        # cannot distinguish streams past depth, so a constant table may be
        # compressed to a pure section with a shorter canonical point.
        matches = all(
            f[q].prefix_of(depth) == table[q].prefix_of(depth) for q in points
        )
        checked += 1
        if not matches or failed or bad_modulus or any(k > depth for _, k in modulus):
            witnesses.append({"table": label, "recheck": failed,
                              "bad_modulus": bad_modulus, "matches": matches})
    broken = _discontinuous_tables(points)
    for label, table in broken:
        checked += 1
        try:
            rules.continuity_rule(table, space)
        except rules.NoModulus:
            continue
        witnesses.append({"table": label, "error": "NoModulus not raised"})
    return _result("continuity", checked, witnesses,
                   tables=len(named) + len(generated), broken=len(broken))


# ------------------------------------------------------------------- sheaves


def _standard_spaces(depth: int):
    cantor = cantor_space(depth)
    baire = baire_space(3, depth)
    return (
        ("cantor", cantor),
        ("baire", baire),
        ("double-cantor", build_double(cantor, eventually_constant_points(2, 1))),
        ("double-baire", build_double(baire, eventually_constant_points(3, 1))),
    )


def _budgeted(presheaf, budget: int) -> tuple:
    return tuple(
        a
        for a in presheaf.space.basis.elements
        if presheaf.section_count(a) <= budget
    )


def sheaf_suite(depth: int = 3, budget: int = 512) -> SuiteResult:
    """Sheaf laws for the value sheaves over the four standard spaces.

    Elements are included while their section count stays within the
    enumeration budget; one sheaf check over the covering system's families
    and the sampled sieves must pass, pure density holds for the eligible
    sheaves, and sections over the root correspond to continuous maps.
    """
    witnesses = []
    checked = 0
    for space_label, space in _standard_spaces(depth):
        # derived_sheaves checks positivity for all six
        derived = derived_sheaves(space)
        nat = ConstantPresheaf(space, (0, 1), space_atoms(space), label="nat")
        sheaves = {"nat": nat, **derived}
        for sheaf_label, presheaf in sheaves.items():
            elems = _budgeted(presheaf, budget)
            if not elems:
                witnesses.append({"space": space_label, "sheaf": sheaf_label,
                                  "error": "no elements within budget"})
                continue
            report = sheaf_check(presheaf, elements=elems, sieve_cap=8)
            checked += report.checked_laws + sum(
                len(space.system.families_at(a)) for a in elems)
            if not report.ok:
                # the covering system's own families pass when no failure sits on one
                system_ok = not report.law_failures and not any(
                    fam in space.system.families_at(a)
                    for a, fam, *_ in report.separation_failures + report.glue_failures)
                witnesses.append({"space": space_label, "sheaf": sheaf_label,
                                  "sampled_ok": report.ok, "system_ok": system_ok})
            if any(sheaf_label.startswith(s) for s in ("nat", "two", "finseq")):
                density = pure_density_check(presheaf, elements=elems)
                checked += density.checked
                if not density.ok:
                    witnesses.append({"space": space_label, "sheaf": sheaf_label,
                                      "density_failures": len(density.failures)})
        root = space.d(()) if hasattr(space, "d") else ()
        if nat.section_count(root) <= budget:
            bijection = section_map_bijection_check(nat, root)
            checked += bijection.sections
            if not bijection.ok:
                witnesses.append({"space": space_label, "sheaf": "nat",
                                  "bijection_ok": False})
    return _result("sheaves", checked, witnesses, budget=budget)


# ---------------------------------------------------------------- cc/choice


def cc_suite(seed: int = 0, samples: int = 100) -> SuiteResult:
    """Disjoint refinement on every enumerated cover, then sampled gluings."""
    witnesses = []
    checked = 0
    spaces = _standard_spaces(2)
    refinements = []
    for label, space in spaces:
        basis = space.basis
        for a in basis.elements:
            for sieve in sieves_on(basis, a, cap=256):
                if not space.topology.cover(a, sieve).covered:
                    continue
                checked += 1
                refined = cc_refine(space, a, sieve)
                disjoint = all(
                    not any(basis.leq(z, x) and basis.leq(z, y) for z in basis.elements)
                    for x, y in itertools.combinations(refined, 2)
                )
                covers = space.topology.cover(
                    a, Sieve.from_generators(basis, a, refined)
                ).covered
                if not disjoint or not covers or not all(r in sieve.members for r in refined):
                    witnesses.append({"space": label, "root": a,
                                      "generators": sieve.generators, "refined": refined})
                else:
                    refinements.append((label, space, a, refined))
    rng = random.Random(seed)
    values = (0, 1)
    sheaves = {label: nat_sheaf(space, len(values)) for label, space in spaces}
    for _ in range(samples):
        label, space, a, refined = rng.choice(refinements)
        witnesses_map = {r: rng.choice(values) for r in refined}
        checked += 1
        glued = choice_amalgamation(sheaves[label], a, witnesses_map)
        if not glued.unique:
            witnesses.append({"space": label, "root": a, "pieces": refined,
                              "error": "amalgamation not unique"})
    return _result("cc", checked, witnesses, samples=samples)


# ------------------------------------------------------------------ brouwer


def _alt_baire_pairs(branches, depths, **tags) -> tuple:
    """Checked sieves and failure witnesses of the alternative cover check."""
    witnesses = []
    checked = 0
    for branch in branches:
        for depth in depths:
            report = alt_baire_equiv_check(branch, depth)
            checked += report.checked_sieves
            if not report.ok:
                witnesses.append({**tags, "branch": branch, "depth": depth,
                                  "disagreements": len(report.cover_disagreements)})
    return checked, witnesses


def _equiv_partition_ok(quotient: TreeQuotient, depth: int) -> tuple:
    mismatches = []
    checked = 0
    for root in quotient.space.basis.elements:
        trees = enumerate_labelled(quotient.space, quotient.branch, root, depth)
        owner = {w: cls[0] for cls in quotient.classes(trees) for w in cls}
        for v in trees:
            for w in trees:
                checked += 1
                if quotient.eq(v, w) != (owner[v] is owner[w]):
                    mismatches.append((root, v, w))
    return checked, mismatches


def brouwer_suite(max_branch: int = 3, max_depth: int = 3) -> SuiteResult:
    """Alternative cover presentation plus the labelled-tree law battery."""
    checked, witnesses = _alt_baire_pairs(
        range(2, max_branch + 1), range(1, max_depth + 1), check="alt-baire"
    )
    # the partition check and the Cantor battery ask the same questions
    cantor = TreeQuotient(cantor_space(1), 2)
    eq_checked, mismatches = _equiv_partition_ok(cantor, 2)
    checked += eq_checked
    if mismatches:
        witnesses.append({"check": "tree-equiv", "mismatches": len(mismatches)})
    double = build_double(cantor_space(1), eventually_constant_points(2, 1))
    battery = (
        ("one-point", TreeQuotient(one_point_space(), 2), 2),
        ("cantor", cantor, 2),
        ("double-cantor", TreeQuotient(double, 2), 1),
    )
    reports = {}
    for label, quotient, depth in battery:
        report = reports[label] = bo_sheaf_checks(quotient, depth)
        checked += sum(n for _, n in report.tree_counts)
        if not report.ok:
            witnesses.append({"check": "bo-laws", "space": label,
                              "subalgebra_ok": report.subalgebra_ok})
    one_point = dict(reports["one-point"].class_counts)
    if one_point["*"] != len(enumerate_trees(2, 2)):
        witnesses.append({"check": "one-point-bijection", "classes": one_point["*"]})
    return _result("brouwer", checked, witnesses,
                   alt_pairs=(max_branch - 1) * max_depth)


# --------------------------------------------------------- set compactness


def setcompact_suite(seed: int = 0, samples: int = 100) -> SuiteResult:
    """Minimal witnesses for random inductive definitions, brute re-verified."""
    rng = random.Random(seed)
    witnesses = []
    checked = 0
    produced = 0
    while produced < samples:
        size = rng.randint(1, 6)
        carrier = tuple(f"c{i}" for i in range(size))
        rules_list = []
        for _ in range(rng.randint(0, 2 * size)):
            premises = tuple(
                x for x in carrier if rng.random() < 0.3
            )
            rules_list.append((premises, rng.choice(carrier)))
        phi = InductiveDefinition(carrier, tuple(rules_list))
        start = tuple(x for x in carrier if rng.random() < 0.5)
        closure = inductive_close(phi, start)
        if not closure:
            continue
        target = sorted(closure, key=element_key)[rng.randrange(len(closure))]
        produced += 1
        checked += 1
        witness = set_compactness_witness(phi, start, target)
        revalidates = target in inductive_close(phi, witness)
        minimal = not any(
            target in inductive_close(phi, subset)
            for k in range(len(witness))
            for subset in itertools.combinations(sorted(start, key=element_key), k)
        )
        if not (witness <= frozenset(start)) or not revalidates or not minimal:
            witnesses.append({"carrier": carrier, "start": start, "target": target,
                              "witness": sorted(witness)})
    return _result("set-compactness", checked, witnesses, samples=samples)


# ---------------------------------------------------------------- registry


CHECK_SUITES = {
    "topology": lambda seed, samples: topology_suite(seed=seed, samples=samples),
    "forcing": lambda seed, samples: _merge(
        forcing_suite(seed=seed, samples=samples),
        truth_suite(seed=seed, samples=samples),
        name="forcing",
    ),
    "sheaves": lambda seed, samples: sheaf_suite(),
    "brouwer": lambda seed, samples: brouwer_suite(),
    "alt-baire": lambda seed, samples: _alt_baire_only(),
    "fan": lambda seed, samples: fan_suite(seed=seed, samples=samples),
    "bar": lambda seed, samples: bar_suite(seed=seed, samples=samples),
    "continuity": lambda seed, samples: continuity_suite(seed=seed),
    "cc": lambda seed, samples: cc_suite(seed=seed, samples=samples),
    "compactness": lambda seed, samples: compactness_suite(),
    "setcompact": lambda seed, samples: setcompact_suite(seed=seed, samples=samples),
}


def _alt_baire_only() -> SuiteResult:
    checked, witnesses = _alt_baire_pairs((2, 3), (1, 2, 3))
    return _result("alt-baire", checked, witnesses, pairs=6)


def _merge(*results: SuiteResult, name: str) -> SuiteResult:
    witnesses = []
    for r in results:
        witnesses.extend({"suite": r.name, **w} if isinstance(w, dict) else w
                         for w in r.witnesses)
    return _result(
        name,
        sum(r.checked for r in results),
        witnesses,
        parts=tuple(r.name for r in results),
    )
