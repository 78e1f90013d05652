"""Covers of whole zones: ``Topology.covered`` against per-element cover
tests, and the two cover tests of the binary tree against each other."""
import random

import pytest
from hypothesis import given, settings, strategies as st

from cover_oracle import covered_by_cover_tests
from order_oracle import generate_topology
from sheafbench.double import build_double
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
