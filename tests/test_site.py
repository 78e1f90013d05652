"""Order, sieve, and generated-cover core: examples plus oracle comparisons."""
from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

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
    element_key,
    FormalSpace,
    GeneratedTopology,
    Topology,
    inductive_close,
    recheck_cover_induction,
    set_compactness_witness,
    sieves_on,
)
from sheafbench.double import build_double
from sheafbench.points import eventually_constant_points
from sheafbench.spaces import all_sequences, baire_space, cantor_space, seq_leq

from cover_oracle import axioms_by_cover_tests
from order_oracle import basis_from_relation, generate_topology


def _brute_members(leq, elements, root, gens):
    """Oracle: downward closure of the generators below the root, read off the raw relation."""
    inside = [g for g in gens if leq(g, root)]
    return {v for v in elements if any(leq(v, g) for g in inside)}


def _brute_generators(leq, root, gens):
    """Oracle: the generator antichain, normalized pairwise through the raw relation.

    Generators below the root, one per order-equivalence class (the first in
    canonical order), then those strictly below another are dropped.
    """
    chosen = []
    for g in sorted({g for g in gens if leq(g, root)}, key=element_key):
        if not any(leq(g, h) and leq(h, g) for h in chosen):
            chosen.append(g)
    return tuple(
        g for g in chosen
        if not any(h != g and leq(g, h) and not leq(h, g) for h in chosen)
    )


@st.composite
def _preorders(draw):
    """Labels and the reflexive-transitive closure of random pairs, as a relation."""
    n = draw(st.integers(1, 7))
    le = [[i == j for j in range(n)] for i in range(n)]
    for i, j in draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))):
        le[i][j] = True
    for k in range(n):
        for i in range(n):
            for j in range(n):
                le[i][j] = le[i][j] or (le[i][k] and le[k][j])
    labels = [f"e{i}" for i in range(n)]
    index = {label: i for i, label in enumerate(labels)}
    return labels, lambda a, b: le[index[a]][index[b]]


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
    assert r.members == frozenset()


def test_restrict_maximal_sieve_is_maximal_below():
    space = cantor_space(2)
    m = Sieve.maximal(space.basis, ())
    r = m.restrict((0, 0))
    below = Sieve.maximal(space.basis, (0, 0))
    assert (r.root, set(r.members)) == (below.root, set(below.members))


def test_restrict_keeps_only_comparable_generators():
    space = cantor_space(2)
    s = Sieve.from_generators(space.basis, (), [(0, 0), (1,)])
    r = s.restrict((0,))
    assert set(r.members) == _brute_members(seq_leq, space.basis.elements, (0,), [(0, 0)])


def test_restrict_matches_membership_oracle_on_random_generators():
    space = cantor_space(3)
    rng = random.Random(7)
    pool = list(space.basis.elements)
    for _ in range(40):
        gens = rng.sample(pool, rng.randint(0, 4))
        b = rng.choice(pool)
        s = Sieve.from_generators(space.basis, (), gens)
        assert set(s.restrict(b).members) == {
            v for v in _brute_members(seq_leq, space.basis.elements, (), gens) if seq_leq(v, b)
        }


def test_sieve_generators_form_an_antichain():
    space = cantor_space(3)
    s = Sieve.from_generators(space.basis, (), [(0,), (0, 0), (0, 1), (1, 1)])
    assert s.generators == ((0,), (1, 1))


def test_equal_sieves_compare_equal_and_keep_their_given_generators():
    basis = Basis.from_pairs(["e0", "e1"], [("e0", "e1"), ("e1", "e0")])
    by_e0 = Sieve.from_generators(basis, "e0", ["e0"])
    by_e1 = Sieve.from_generators(basis, "e0", ["e1"])
    assert by_e0 == by_e1
    assert hash(by_e0) == hash(by_e1)
    assert by_e0.generators == ("e0",)
    assert by_e1.generators == ("e1",)


def test_from_pairs_keeps_one_copy_of_its_order():
    rng = random.Random(5)
    labels = [f"e{i}" for i in range(8)]
    pairs = [(a, b) for a in labels for b in labels if a != b and rng.random() < 0.2]
    basis = Basis.from_pairs(labels, pairs)
    # oracle: a path of pairs leads from a up to b
    for b in labels:
        reach, frontier = {b}, [b]
        while frontier:
            top = frontier.pop()
            for x, y in pairs:
                if y == top and x not in reach:
                    reach.add(x)
                    frontier.append(x)
        assert basis.below(b) == reach
        assert basis.down(b) == tuple(v for v in basis.elements if basis.leq(v, b))
    # the down-sets are the only copy: no relation is kept beside them
    assert not any(callable(value) for value in vars(basis).values())


def test_a_basis_keeps_the_down_sets_it_is_given():
    below = {u: frozenset(v for v in all_sequences(2, 3) if seq_leq(v, u))
             for u in all_sequences(2, 3)}
    basis = Basis(below)
    assert basis.elements == tuple(sorted(below, key=element_key))
    for u, got in below.items():
        assert basis.below(u) is got


def test_basis_rejects_down_sets_outside_its_elements():
    with pytest.raises(UnknownElement) as exc:
        Basis({"a": {"a", "b"}, "c": {"c", "z", "y"}})
    assert exc.value.args == ("b",)
    with pytest.raises(ValueError, match="leaves out"):
        Basis({"a": {"a"}, "b": {"a"}})
    with pytest.raises(UnknownElement):
        Basis({"a": {"a"}}).below("b")


@given(_preorders(), st.data())
def test_order_and_sieves_match_the_raw_relation(order, data):
    labels, leq = order
    basis = basis_from_relation(labels, leq)
    root = data.draw(st.sampled_from(labels))
    gens = data.draw(st.lists(st.sampled_from(labels), max_size=5))
    b = data.draw(st.sampled_from(labels))
    sieve = Sieve.from_generators(basis, root, gens)
    members = _brute_members(leq, labels, root, gens)
    assert sieve.members == members
    assert [sieve.contains(v) for v in labels] == [v in members for v in labels]
    assert sieve.generators == _brute_generators(leq, root, gens)
    by_members = Sieve.from_generators(basis, root, members)
    assert by_members == sieve and hash(by_members) == hash(sieve)
    restricted = sieve.restrict(b)
    below_b = {v for v in members if leq(v, b)}
    assert (restricted.root, restricted.members) == (b, below_b)
    assert restricted.generators == _brute_generators(leq, b, below_b)
    ordered = sorted(labels, key=element_key)
    for x in labels:
        assert basis.down(x) == tuple(v for v in ordered if leq(v, x))
        assert basis.up(x) == tuple(v for v in ordered if leq(x, v))
        for y in labels:
            assert basis.leq(x, y) == leq(x, y)
            assert basis.disjoint(x, y) == (not any(leq(z, x) and leq(z, y) for z in labels))


def _bits_of(basis, mask):
    return tuple(v for i, v in enumerate(basis.elements) if mask >> i & 1)


def _tree_and_double_bases():
    trees = [cantor_space(d) for d in range(4)] + [baire_space(3, d) for d in range(3)]
    doubles = [build_double(t, eventually_constant_points(t.branch, 1)) for t in trees]
    return [space.basis for space in trees + doubles]


@settings(max_examples=200)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 9), st.booleans(), st.data())
def test_the_bit_index_reads_the_order_of_preorders_trees_and_doubles(seed, size, tree, data):
    # random preorders have equivalent elements and no top-down canonical
    # order; tree spaces and doubles list every open before those below it
    if tree:
        basis = data.draw(st.sampled_from(_tree_and_double_bases()))
    else:
        basis = random_preorder(random.Random(seed), size)
    index = basis.bits
    assert basis.bits is index
    assert index.elements == basis.elements
    assert [index.at(x) for x in basis.elements] == list(range(len(basis)))
    for i, x in enumerate(basis.elements):
        assert _bits_of(basis, index.down[i]) == basis.down(x)
        assert _bits_of(basis, index.up[i]) == basis.up(x)
        assert index.mask(basis.below(x)) == index.down[i]
    with pytest.raises(UnknownElement):
        index.at("not an element")


def test_a_basis_builds_its_bit_index_only_when_asked():
    basis = cantor_space(2).basis
    basis.down(())
    assert "bits" not in vars(basis)
    assert basis.bits.down[0] == 2 ** len(basis) - 1


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
    # the leaves cover the root as well, by a derivation one level a step
    deep = baire_space(2, 3)
    res = deep.topology.cover((), Sieve.from_generators(deep.basis, (), deep.leaves()))
    assert res.covered and res.depth == 3


def test_single_branch_is_never_covering():
    space = baire_space(2, 2)
    s = Sieve.from_generators(space.basis, (), [(0,)])
    res = space.topology.cover((), s)
    assert not res.covered
    assert res.frontier == ((), (1,), (1, 0), (1, 1))


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
    basis = basis_from_relation(["a", "b", "q"], lambda x, y: x == y or y == "a")
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
        space = FormalSpace(basis, generate_topology(system), system)
        report = check_topology_axioms(space, sieve_cap=32)
        assert report.ok, report


def test_axioms_hold_on_truncated_tree_systems():
    for space in (cantor_space(2), baire_space(2, 2), baire_space(3, 1)):
        generated = FormalSpace(space.basis, generate_topology(space.system), space.system)
        report = check_topology_axioms(generated, sieve_cap=40)
        assert report.ok, report


def test_axioms_hold_on_a_tree_basis_read_off_the_relation():
    # the same child families over the relation oracle and over the derived
    # tree down-sets give the same verdicts
    elements = all_sequences(2, 4)
    reports = []
    for basis in (basis_from_relation(elements, seq_leq), cantor_space(4).basis):
        system = CoveringSystem(
            basis, {u: [(u + (0,), u + (1,))] if len(u) < 4 else [(u,)] for u in elements}
        )
        reports.append(check_topology_axioms(FormalSpace(basis, generate_topology(system), system)))
    assert reports[0].ok
    assert reports[0] == reports[1]


def _unrepaired_system(rng, basis) -> CoveringSystem:
    """The random families ``random_covering_system`` starts from, taken as
    drawn: no repair, so the covering axiom may fail."""
    families = {}
    for a in basis.elements:
        down = list(basis.down(a))
        families[a] = [rng.sample(down, rng.randint(1, min(3, len(down))))
                       for _ in range(rng.randint(0, 2))]
    return CoveringSystem(basis, families)


class _OneStepTopology(Topology):
    """A broken kernel: a family derives its element only from zone members,
    so covers do not compose and local character fails."""

    def __init__(self, system):
        super().__init__(system.basis)
        self.system = system

    def ranks(self, zone):
        got = dict.fromkeys(zone, 0)
        for v in self.basis.elements:
            if v not in got and any(zone.issuperset(alpha) for alpha in self.system.families_at(v)):
                got[v] = 1
        return got


class _WholeZoneTopology(Topology):
    """A broken kernel whose verdict at ``b`` reads the zone outside
    ``below(b)``: a non-empty zone covers every element."""

    def ranks(self, zone):
        return dict.fromkeys(self.basis.elements, 0) if zone else {}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 7), st.booleans())
def test_axiom_check_matches_a_cover_test_per_instance(seed, size, repaired):
    # unrepaired systems reach failing stability instances; a generated
    # topology always has local character, since derivations compose
    rng = random.Random(seed)
    basis = random_preorder(rng, size)
    system = random_covering_system(rng, basis) if repaired else _unrepaired_system(rng, basis)
    space = FormalSpace(basis, GeneratedTopology(system), system)
    assert check_topology_axioms(space, sieve_cap=24) == axioms_by_cover_tests(space, 24)


def test_unrepaired_systems_fail_stability():
    # the oracle comparison above reaches failing reports
    rng = random.Random(11)
    failures = 0
    for _ in range(10):
        basis = random_preorder(rng, rng.randint(3, 7))
        system = _unrepaired_system(rng, basis)
        report = check_topology_axioms(FormalSpace(basis, GeneratedTopology(system), system), 24)
        failures += len(report.stability_failures)
    assert failures


@pytest.mark.parametrize("space", [
    cantor_space(3),
    baire_space(2, 3),
    baire_space(3, 2),
    build_double(cantor_space(3), eventually_constant_points(2, 1)),
], ids=["cantor3", "baire2-3", "baire3-2", "double-cantor3"])
def test_axiom_check_matches_a_cover_test_per_instance_on_tree_spaces(space):
    assert check_topology_axioms(space, sieve_cap=24) == axioms_by_cover_tests(space, 24)


def test_axiom_check_finds_a_kernel_whose_covers_do_not_compose():
    # every sieve on the root of Baire(2, 2): the leaves cover each child
    # in one step, and the children cover the root, but not the leaves
    space = baire_space(2, 2)
    broken = FormalSpace(space.basis, _OneStepTopology(space.system), space.system)
    report = check_topology_axioms(broken, sieve_cap=128)
    assert report.local_character_failures
    assert report == axioms_by_cover_tests(broken, 128)


def test_axiom_check_asks_each_restricted_zone():
    # reading the restricted verdicts off the sample's own ranks would pass
    # this kernel: stability is what the restricted zones test
    space = cantor_space(2)
    broken = FormalSpace(space.basis, _WholeZoneTopology(space.basis), space.system)
    report = check_topology_axioms(broken, sieve_cap=24)
    assert report.stability_failures
    assert report == axioms_by_cover_tests(broken, 24)


def test_sieve_sampler_is_deterministic():
    space = cantor_space(2)
    a = sieves_on(space.basis, (), cap=40)
    b = sieves_on(space.basis, (), cap=40)
    assert [s.generators for s in a] == [s.generators for s in b]
