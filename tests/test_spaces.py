"""Truncated tree spaces: brackets, the direct cover test, and bars."""
from __future__ import annotations

import itertools
import random

import pytest

from sheafbench.randomgen import random_monotone_bar
from sheafbench.site import NotACover, Sieve, generate_topology
from sheafbench.spaces import (
    Bar,
    DepthExceeded,
    NotInductive,
    NotMonotone,
    bar_from_generators,
    bar_to_sieve,
    baire_space,
    cantor_space,
    kfinite_subcover,
    seq_leq,
    u_bracket,
)


def _brute_min_uniform_depth(space, u, sieve):
    """Oracle: smallest bracket depth whose sequences all lie in the sieve."""
    for q in range(len(u), space.depth + 1):
        tails = itertools.product(range(space.branch), repeat=q - len(u))
        if all(sieve.contains(u + t) for t in tails):
            return q
    return None


def test_bracket_counts_and_members():
    space = cantor_space(3)
    assert len(u_bracket(space, (), 2)) == 4
    assert u_bracket(space, (1,), 1) == ((1,),)
    assert set(u_bracket(space, (1,), 2)) == {(1, 0), (1, 1)}


def test_bracket_depth_bounds():
    space = cantor_space(2)
    with pytest.raises(DepthExceeded):
        u_bracket(space, (), 3)
    with pytest.raises(DepthExceeded):
        u_bracket(space, (0, 1), 1)


def test_cover_test_finds_minimal_mixed_depth():
    space = cantor_space(3)
    s = Sieve.from_generators(space.basis, (), [(0,), (1, 0), (1, 1)])
    res = space.topology.cover((), s)
    assert res.covered and res.depth == 2


def test_cover_test_reports_missing_frontier():
    space = cantor_space(3)
    s = Sieve.from_generators(space.basis, (), [(0,)])
    res = space.topology.cover((), s)
    assert not res.covered
    assert set(res.frontier) == {u for u in u_bracket(space, (), 3) if u[0] == 1}


def test_cover_test_matches_brute_force_on_random_sieves():
    space = cantor_space(4)
    rng = random.Random(23)
    pool = list(space.basis.elements)
    for _ in range(80):
        s = Sieve.from_generators(space.basis, (), rng.sample(pool, rng.randint(0, 5)))
        u = rng.choice(pool)
        expected = _brute_min_uniform_depth(space, u, s)
        got = space.topology.cover(u, s)
        assert (got.depth if got.covered else None) == expected


def test_direct_and_generated_covers_agree():
    direct = cantor_space(3)
    generated = generate_topology(direct.system, validate=False)
    rng = random.Random(31)
    pool = list(direct.basis.elements)
    for _ in range(60):
        s = Sieve.from_generators(direct.basis, (), rng.sample(pool, rng.randint(0, 5)))
        for u in pool:
            assert (
                direct.topology.cover(u, s.restrict(u)).covered
                == generated.cover(u, s.restrict(u)).covered
            )


def test_binary_child_system_agrees_with_bracket_test():
    # the same basis carries both presentations; their verdicts must coincide
    bracket = cantor_space(3)
    child = baire_space(2, 3)
    rng = random.Random(37)
    pool = list(bracket.basis.elements)
    for _ in range(60):
        s1 = Sieve.from_generators(bracket.basis, (), rng.sample(pool, rng.randint(0, 5)))
        s2 = Sieve.from_generators(child.basis, (), s1.generators)
        assert (
            bracket.topology.cover((), s1).covered
            == child.topology.cover((), s2).covered
        )


def test_kfinite_subcover_revalidates():
    space = cantor_space(3)
    s = Sieve.from_generators(space.basis, (), [(0,), (1, 0), (1, 1)])
    alpha = kfinite_subcover(space, (), s)
    assert alpha == u_bracket(space, (), 2)
    assert all(s.contains(v) for v in alpha)
    regenerated = Sieve.from_generators(space.basis, (), alpha)
    assert space.topology.cover((), regenerated).covered


def test_kfinite_subcover_requires_a_cover():
    space = cantor_space(2)
    s = Sieve.from_generators(space.basis, (), [(0,)])
    with pytest.raises(NotACover):
        kfinite_subcover(space, (), s)


# ---------------------------------------------------------------------------
# Bars


def test_bar_monotonicity_is_verified():
    space = cantor_space(3)
    with pytest.raises(NotMonotone):
        Bar(space, lambda u: len(u) == 1, monotone=True)


def test_bar_inductive_flag_is_verified():
    space = cantor_space(3)
    with pytest.raises(NotInductive):
        Bar(space, lambda u: len(u) >= 2, monotone=True, inductive=True)
    Bar(space, lambda u: len(u) >= 0, monotone=True, inductive=True)


def test_bar_to_sieve_generators_are_the_maximal_hits():
    space = cantor_space(3)
    bar = Bar(space, lambda u: 1 in u or len(u) >= 3, monotone=True)
    s = bar_to_sieve(bar)
    assert set(s.generators) == {(1,), (0, 1), (0, 0, 1), (0, 0, 0)}
    for u in space.basis.elements:
        assert s.contains(u) == bar.holds(u)


def test_bar_from_generators_is_downclosed_membership():
    space = cantor_space(3)
    bar = bar_from_generators(space, [(0, 1), (1,)])
    assert bar.holds((0, 1, 1)) and bar.holds((1, 0))
    assert not bar.holds(()) and not bar.holds((0,))


def test_random_covering_bars_cover_the_root():
    rng = random.Random(41)
    space = cantor_space(4)
    for _ in range(20):
        bar = random_monotone_bar(rng, space, covering=True)
        assert space.topology.cover((), bar_to_sieve(bar)).covered


def test_inductive_closure_of_a_covering_bar_reaches_the_root():
    # oracle for the induction corollary: close under "all children" directly
    space = baire_space(2, 3)
    rng = random.Random(43)
    for _ in range(10):
        bar = random_monotone_bar(rng, space, covering=True)
        hit = set(bar.members())
        changed = True
        while changed:
            changed = False
            for u in space.basis.elements:
                if u not in hit and len(u) < space.depth:
                    if all(u + (n,) in hit for n in range(space.branch)):
                        hit.add(u)
                        changed = True
        assert () in hit
        s = bar_to_sieve(bar)
        assert space.topology.cover((), s).covered
