"""Order, sieve, and generated-cover core: examples plus oracle comparisons."""
from __future__ import annotations

import itertools
import random

import pytest

from sheafbench.randomgen import random_covering_system, random_preorder
from sheafbench.site import (
    Basis,
    CoveringAxiomViolation,
    CoveringSystem,
    HypothesisFails,
    InductiveDefinition,
    NotACover,
    NotDerivable,
    Sieve,
    UnknownElement,
    check_topology_axioms,
    cover_induction,
    FormalSpace,
    generate_topology,
    inductive_close,
    recheck_cover_induction,
    set_compactness_witness,
    sieves_on,
)
from sheafbench.spaces import baire_space, cantor_space, seq_leq


def _brute_members(basis, root, gens):
    """Oracle: downward closure of the generators, enumerated directly."""
    return {
        v
        for v in basis.elements
        if basis.leq(v, root) and any(basis.leq(v, g) for g in gens)
    }


def _paths(branch, depth, start):
    """All maximal extensions of ``start`` in the truncated tree."""
    tails = itertools.product(range(branch), repeat=depth - len(start))
    return [tuple(start) + t for t in tails]


def _oracle_tree_covered(branch, depth, x, sieve):
    """Oracle: a sieve covers a node iff every maximal path below meets it."""
    return all(
        any(sieve.contains(path[:q]) for q in range(len(x), depth + 1))
        for path in _paths(branch, depth, x)
    )


# ---------------------------------------------------------------------------
# Sieves and restriction


def test_restrict_to_disjoint_branch_is_empty():
    space = cantor_space(2)
    s = Sieve.from_generators(space.basis, (), [(0,)])
    r = s.restrict((1,))
    assert r.root == (1,)
    assert r.generators == ()
    assert r.members == ()


def test_restrict_maximal_sieve_is_maximal_below():
    space = cantor_space(2)
    m = Sieve.maximal(space.basis, ())
    r = m.restrict((0, 0))
    assert r.same_members(Sieve.maximal(space.basis, (0, 0)))


def test_restrict_keeps_only_comparable_generators():
    space = cantor_space(2)
    s = Sieve.from_generators(space.basis, (), [(0, 0), (1,)])
    r = s.restrict((0,))
    assert set(r.members) == _brute_members(space.basis, (0,), [(0, 0)])


def test_restrict_matches_membership_oracle_on_random_generators():
    space = cantor_space(3)
    rng = random.Random(7)
    pool = list(space.basis.elements)
    for _ in range(40):
        gens = rng.sample(pool, rng.randint(0, 4))
        b = rng.choice(pool)
        s = Sieve.from_generators(space.basis, (), gens)
        assert set(s.restrict(b).members) == {
            v for v in _brute_members(space.basis, (), gens) if seq_leq(v, b)
        }


def test_sieve_generators_form_an_antichain():
    space = cantor_space(3)
    s = Sieve.from_generators(space.basis, (), [(0,), (0, 0), (0, 1), (1, 1)])
    assert s.generators == ((0,), (1, 1))


def test_restrict_unknown_element_raises():
    space = cantor_space(2)
    s = Sieve.maximal(space.basis, ())
    with pytest.raises(UnknownElement):
        s.restrict((0, 0, 0))


# ---------------------------------------------------------------------------
# Inductive definitions


def test_inductive_close_chain():
    phi = InductiveDefinition(("a", "b", "c"), ((("a",), "b"), (("b",), "c")))
    assert inductive_close(phi, {"a"}) == {"a", "b", "c"}


def test_inductive_close_axiom_rule_fires_from_nothing():
    phi = InductiveDefinition(("a", "b"), (((), "a"),))
    assert inductive_close(phi, set()) == {"a"}


def test_inductive_close_circular_rule_adds_nothing():
    phi = InductiveDefinition(("a",), ((("a",), "a"),))
    assert inductive_close(phi, set()) == frozenset()


def test_set_compactness_witness_is_minimal_by_size():
    phi = InductiveDefinition(
        ("a", "b", "c", "goal"),
        ((("a",), "goal"), (("b", "c"), "goal")),
    )
    w = set_compactness_witness(phi, {"a", "b", "c"}, "goal")
    assert w == {"a"}


def test_set_compactness_witness_revalidates():
    rng = random.Random(3)
    carrier = tuple("abcdef")
    for _ in range(30):
        rules = []
        for _ in range(rng.randint(1, 6)):
            prem = tuple(rng.sample(carrier, rng.randint(0, 2)))
            rules.append((prem, rng.choice(carrier)))
        phi = InductiveDefinition(carrier, tuple(rules))
        start = set(rng.sample(carrier, rng.randint(1, 4)))
        goal = rng.choice(carrier)
        try:
            w = set_compactness_witness(phi, start, goal)
        except NotDerivable:
            assert goal not in inductive_close(phi, start)
            continue
        assert w <= start
        assert goal in inductive_close(phi, w)
        # nothing strictly smaller works
        if w:
            for smaller in itertools.combinations(sorted(w), len(w) - 1):
                assert goal not in inductive_close(phi, smaller)


def test_set_compactness_not_derivable():
    phi = InductiveDefinition(("a", "b"), ())
    with pytest.raises(NotDerivable):
        set_compactness_witness(phi, {"a"}, "b")


# ---------------------------------------------------------------------------
# Generated topologies


def test_child_cover_of_root_is_covering():
    space = baire_space(2, 2)
    s = Sieve.from_generators(space.basis, (), [(0,), (1,)])
    assert space.topology.cover((), s).covered


def test_single_branch_is_never_covering():
    space = baire_space(2, 2)
    s = Sieve.from_generators(space.basis, (), [(0,)])
    for fuel in (0, 1, 5, None):
        res = space.topology.cover((), s, fuel)
        assert not res.covered
        assert not res.exhausted


def test_fuel_bounds_derivation_depth_without_flipping_verdicts():
    space = baire_space(2, 3)
    leaves = [u for u in space.basis.elements if len(u) == 3]
    s = Sieve.from_generators(space.basis, (), leaves)
    deep = space.topology.cover((), s)
    assert deep.covered and deep.depth == 3
    starved = space.topology.cover((), s, fuel=2)
    assert not starved.covered and starved.exhausted


def test_generated_cover_matches_path_oracle():
    space = baire_space(2, 3)
    rng = random.Random(11)
    pool = list(space.basis.elements)
    for _ in range(60):
        gens = rng.sample(pool, rng.randint(0, 5))
        s = Sieve.from_generators(space.basis, (), gens)
        for x in pool:
            got = space.topology.cover(x, s.restrict(x)).covered
            assert got == _oracle_tree_covered(2, 3, x, s)


def test_membership_restricts_to_the_fragment_below():
    # derivability from a sieve agrees with derivability from its restriction
    space = baire_space(2, 3)
    rng = random.Random(13)
    pool = list(space.basis.elements)
    for _ in range(25):
        s = Sieve.from_generators(space.basis, (), rng.sample(pool, rng.randint(1, 4)))
        for x in pool:
            direct = space.topology.cover(x, s.restrict(x)).covered
            again = space.topology.cover(x, s.restrict(x).restrict(x)).covered
            assert direct == again


def test_covering_axiom_violation_is_reported():
    basis = Basis(["a", "b", "q"], lambda x, y: x == y or y == "a")
    system = CoveringSystem(basis, {"a": [("b",)]})
    with pytest.raises(CoveringAxiomViolation) as exc:
        generate_topology(system)
    assert exc.value.p == "a"
    assert exc.value.q in ("b", "q")


def test_leaf_families_do_not_make_empty_sieves_cover():
    space = baire_space(2, 2)
    for u in space.basis.elements:
        assert not space.topology.cover(u, Sieve.empty(space.basis, u)).covered


# ---------------------------------------------------------------------------
# Cover induction and closed closure


def test_cover_induction_replays_the_derivation():
    space = baire_space(2, 2)
    s = Sieve.from_generators(space.basis, (), [u for u in space.basis.elements if len(u) == 2])
    pred = lambda u: True
    transcript = cover_induction(space.system, pred, (), s)
    assert recheck_cover_induction(transcript, space.system, pred, s)


def test_cover_induction_hypothesis_failure_is_concrete():
    space = baire_space(2, 2)
    s = Sieve.from_generators(space.basis, (), [(0,), (1,)])
    with pytest.raises(HypothesisFails) as exc:
        cover_induction(space.system, lambda u: len(u) >= 1, (), s)
    assert exc.value.element == ()
    assert exc.value.family == ((0,), (1,))


def test_cover_induction_requires_a_cover():
    space = baire_space(2, 2)
    s = Sieve.from_generators(space.basis, (), [(0,)])
    with pytest.raises(NotACover):
        cover_induction(space.system, lambda u: True, (), s)


# ---------------------------------------------------------------------------
# Topology axioms on random systems (smoke scale; the acceptance suite scales up)


def test_axioms_hold_on_random_generated_systems():
    rng = random.Random(2024)
    for _ in range(8):
        basis = random_preorder(rng, rng.randint(2, 6))
        system = random_covering_system(rng, basis)
        space = FormalSpace(basis, generate_topology(system, validate=False), system)
        report = check_topology_axioms(space, sieve_cap=32, rng=rng)
        assert report.ok, report


def test_axioms_hold_on_truncated_tree_systems():
    for space in (cantor_space(2), baire_space(2, 2), baire_space(3, 1)):
        generated = FormalSpace(
            space.basis, generate_topology(space.system, validate=False), space.system
        )
        report = check_topology_axioms(generated, sieve_cap=40)
        assert report.ok, report


def test_sieve_sampler_is_deterministic():
    space = cantor_space(2)
    a = sieves_on(space.basis, (), cap=40)
    b = sieves_on(space.basis, (), cap=40)
    assert [s.generators for s in a] == [s.generators for s in b]
