"""The ranked cover kernel against the independent cover tests of
``cover_oracle``: ``Topology.covered`` on whole zones, ``Topology.cover``
on single sieves, and the two cover relations of the binary tree against
each other."""
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from cover_oracle import covered_by_cover_tests, oracle_cover
from order_oracle import generate_topology
from sheafbench.double import DoubleSpace, build_double
from sheafbench.points import eventually_constant_points
from sheafbench.randomgen import random_covering_system, random_preorder
from sheafbench.site import (
    Basis,
    CoveringSystem,
    FormalSpace,
    GeneratedTopology,
    Sieve,
    Topology,
)
from sheafbench.spaces import _bracket_system, baire_space, cantor_space


def _spaces() -> dict:
    """Cantor(1-4), Baire(2, 3), Baire(3, 2), and the double of each over
    the points with prefix at most 1."""
    trees = {f"cantor-{d}": cantor_space(d) for d in range(1, 5)}
    trees.update({"baire-2-3": baire_space(2, 3), "baire-3-2": baire_space(3, 2)})
    doubles = {f"double-{name}": build_double(tree, eventually_constant_points(tree.branch, 1))
               for name, tree in trees.items()}
    return {**trees, **doubles}


_SPACES = _spaces()


def _down_closure(basis, gens) -> frozenset:
    return frozenset().union(*map(basis.below, gens))


@pytest.mark.parametrize("name", sorted(_SPACES))
def test_covered_matches_the_oracle_on_the_empty_and_the_full_zone(name):
    space = _SPACES[name]
    for zone in (frozenset(), frozenset(space.basis.elements)):
        assert space.topology.covered(zone) == covered_by_cover_tests(space, zone)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from(sorted(_SPACES)))
def test_covered_matches_the_per_element_cover_tests(data, name):
    space = _SPACES[name]
    basis = space.basis
    zone = _down_closure(basis, data.draw(st.sets(st.sampled_from(basis.elements), max_size=12)))
    assert space.topology.covered(zone) == covered_by_cover_tests(space, zone)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_generated_covered_matches_on_random_covering_systems(seed):
    # preorders with equivalent elements and families that are not children
    rng = random.Random(seed)
    basis = random_preorder(rng, rng.randint(1, 7))
    system = random_covering_system(rng, basis)
    space = FormalSpace(basis, GeneratedTopology(system), system)
    zone = _down_closure(basis, rng.sample(basis.elements, rng.randint(0, min(3, len(basis)))))
    assert space.topology.covered(zone) == covered_by_cover_tests(space, zone)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from(sorted(_SPACES)))
def test_cover_gives_the_oracle_verdict_depth_and_frontier(data, name):
    space = _SPACES[name]
    basis = space.basis
    # each element a generator by a coin toss: such sieves cover often, from
    # members at mixed depths
    mask = data.draw(st.lists(st.booleans(), min_size=len(basis), max_size=len(basis)))
    gens = [v for v, kept in zip(basis.elements, mask) if kept]
    for a in basis.elements:
        sieve = Sieve.from_generators(basis, a, gens)
        assert space.topology.cover(a, sieve) == oracle_cover(space.topology, a, sieve)


@pytest.mark.parametrize("name", ["cantor-3", "baire-2-3", "baire-3-2", "double-cantor-3",
                                  "double-baire-2-3"])
def test_cover_from_every_set_of_leaves_gives_the_oracle_verdict_and_depth(name):
    # sieves of leaves alone reach every derivation depth up to the tree's
    space = _SPACES[name]
    basis = space.basis
    if isinstance(space, DoubleSpace):
        leaves = [space.d(u) for u in space.inner.leaves()]
    else:
        leaves = list(space.leaves())
    for size in range(len(leaves) + 1):
        for gens in itertools.combinations(leaves, size):
            for a in basis.elements:
                sieve = Sieve.from_generators(basis, a, gens)
                assert space.topology.cover(a, sieve) == oracle_cover(space.topology, a, sieve)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_generated_cover_gives_the_oracle_verdict_depth_and_frontier(seed):
    # preorders with equivalent elements, and empty families on a downward
    # closed set of elements, which keeps the covering axiom
    rng = random.Random(seed)
    basis = random_preorder(rng, rng.randint(1, 7))
    drawn = random_covering_system(rng, basis)
    empty = _down_closure(basis, rng.sample(basis.elements, rng.randint(0, min(2, len(basis)))))
    system = CoveringSystem(basis, {
        a: drawn.families_at(a) + (((),) if a in empty else ()) for a in basis.elements})
    topology = generate_topology(system)
    for a in basis.elements:
        down = basis.down(a)
        sieve = Sieve.from_generators(basis, a, rng.sample(down, rng.randint(0, len(down))))
        assert topology.cover(a, sieve) == oracle_cover(topology, a, sieve)


def test_an_empty_family_covers_its_element_from_the_empty_zone():
    basis = Basis({"a": {"a", "b"}, "b": {"b"}})
    system = CoveringSystem(basis, {"a": [()], "b": [()]})
    space = FormalSpace(basis, generate_topology(system), system)
    assert space.topology.covered(frozenset()) == covered_by_cover_tests(space, frozenset())
    assert space.topology.covered(frozenset()) == {"a", "b"}


def test_the_base_topology_decides_no_zone():
    with pytest.raises(NotImplementedError):
        Topology(cantor_space(1).basis).covered(frozenset())


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(0, 4))
def test_bracket_covers_agree_with_the_generated_bracket_system(data, depth):
    space = cantor_space(depth)
    basis = space.basis
    generated = GeneratedTopology(_bracket_system(basis, 2, depth))
    a = data.draw(st.sampled_from(basis.elements))
    sieve = Sieve.from_generators(
        basis, a, data.draw(st.sets(st.sampled_from(basis.down(a)), max_size=8)))
    assert space.topology.cover(a, sieve).covered == generated.cover(a, sieve).covered
