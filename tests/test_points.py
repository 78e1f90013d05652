from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from map_oracle import point_as_map
from point_oracle import (
    enough_points_check,
    ext_map,
    is_point,
    pt_space,
    scan_generic,
    scan_observation,
    scan_through,
)
from sheafbench.double import build_double
from sheafbench.maps import check_continuous_map
from sheafbench.points import (
    Point,
    eventually_constant_points,
    incidence,
    point_members,
    prefix_chain,
)
from sheafbench.site import Basis, CoveringSystem, FormalSpace, GeneratedTopology, Sieve
from sheafbench.spaces import all_sequences, baire_space, cantor_space


def _stream_prefix(point, n):
    return tuple(point.value(i) for i in range(n))


@lru_cache(maxsize=None)
def _tree_space(kind, branch, depth):
    return cantor_space(depth) if kind == "cantor" else baire_space(branch, depth)


def _points(max_entry):
    entry = st.integers(0, max_entry)
    return st.builds(Point, st.lists(entry, max_size=6).map(tuple), entry)


def test_point_normalization_is_canonical():
    assert Point((0, 1, 1), 1) == Point((0,), 1)
    assert Point((1, 1), 1) == Point((), 1)
    assert Point((0, 1), 0).prefix == (0, 1)
    assert Point((), 0) != Point((), 1)


def test_point_stream_values():
    p = Point((1, 0), 1)
    assert _stream_prefix(p, 5) == (1, 0, 1, 1, 1)
    assert p.passes_through((1, 0, 1))
    assert not p.passes_through((1, 1))


@settings(max_examples=200, deadline=None)
@given(_points(4), st.integers(0, 10))
def test_prefix_of_matches_the_stream_read_entry_by_entry(point, length):
    assert point.prefix_of(length) == _stream_prefix(point, length)
    assert point.passes_through(_stream_prefix(point, length))


def test_eventually_constant_points_are_distinct():
    pts = eventually_constant_points(2, 2)
    # tails 0 and 1, each with the four normalized prefixes of length <= 2
    assert len(pts) == 8
    assert len(set(pts)) == 8
    assert pts == tuple(sorted(pts, key=lambda p: p.sort_key))


def test_point_members_are_stream_prefixes():
    space = cantor_space(3)
    got = point_members(space, Point((1, 0), 1))
    assert got == frozenset({(), (1,), (1, 0), (1, 0, 1)})


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from([("cantor", 2)] + [("baire", b) for b in range(1, 5)]),
       st.integers(0, 5))
def test_is_point_accepts_eventually_constant_streams(data, shape, depth):
    # the lemma build_double relies on instead of checking each stream:
    # entries inside the branching make a point, prefixes past the depth too
    kind, branch = shape
    assert is_point(_tree_space(kind, branch, depth), data.draw(_points(branch - 1))).ok


def test_streams_outside_the_branching_fail_the_point_checks():
    space = cantor_space(2)
    for stream in (Point((2,), 0), Point((0,), 3)):
        assert is_point(space, stream).failed_condition == 3
        assert not check_continuous_map(point_as_map(space, stream)).ok


def test_a_stream_on_a_space_that_is_no_tree_is_a_type_error():
    # a stream names a point through its prefixes, which only a tree space has
    basis = Basis({"a": ["a", "b"], "b": ["b"]})
    system = CoveringSystem(basis, {})
    space = FormalSpace(basis, GeneratedTopology(system), system)
    dbl = build_double(cantor_space(1), eventually_constant_points(2, 0))
    for target in (space, dbl):
        with pytest.raises(TypeError, match="tree space"):
            is_point(target, Point((), 0))
        with pytest.raises(TypeError, match="tree space"):
            point_as_map(target, Point((), 0))
    assert is_point(space, {"a"}).ok


def test_is_point_rejects_two_branch_subset():
    space = cantor_space(2)
    verdict = is_point(space, {(), (0,), (1,)})
    assert not verdict.ok
    assert verdict.failed_condition == 2
    assert verdict.witness == ((0,), (1,))


def test_is_point_rejects_non_upward_closed_subset():
    space = cantor_space(2)
    verdict = is_point(space, {(0,)})
    assert not verdict.ok
    assert verdict.failed_condition == 1


def test_is_point_rejects_cover_avoiding_subset():
    space = cantor_space(2)
    verdict = is_point(space, {()})
    assert not verdict.ok
    assert verdict.failed_condition == 3


def test_is_point_rejects_empty():
    space = cantor_space(2)
    assert is_point(space, frozenset()).failed_condition == 2


def test_ext_of_root_is_everything():
    space = cantor_space(2)
    pts = eventually_constant_points(2, 2)
    extent = ext_map(space, pts)
    assert extent[()] == frozenset(pts)
    assert extent[(0, 1)] == frozenset(
        p for p in pts if p.passes_through((0, 1))
    )


def test_single_point_makes_one_branch_cover_spatially():
    # with only the constant-0 point, the left branch already covers the root
    space = cantor_space(2)
    spatial = pt_space(space, [Point((), 0)])
    s = Sieve.from_generators(spatial.basis, (), [(0,)])
    assert spatial.topology.cover((), s).covered
    formal = Sieve.from_generators(space.basis, (), [(0,)])
    assert not space.topology.cover((), formal).covered


def test_rich_point_family_matches_formal_covers_exactly():
    space = cantor_space(2)
    pts = eventually_constant_points(2, 2)
    report = enough_points_check(space, pts, sieve_cap=64)
    assert report.ok
    assert report.spatial_not_formal == 0
    assert report.checked > 0


def test_poor_point_family_still_sound_but_not_complete():
    space = cantor_space(2)
    pts = [Point((), 0), Point((), 1)]
    report = enough_points_check(space, pts, sieve_cap=64)
    assert report.ok  # formal covers are always spatial covers
    assert report.spatial_not_formal > 0


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sampled_from([2, 3]), st.integers(0, 4))
def test_incidence_matches_the_passes_through_scan(data, branch, depth):
    # Cantor and Baire(3) at depth 0-4, random families with repeats and
    # prefixes longer than the truncation
    space = _tree_space("cantor" if branch == 2 else "baire", branch, depth)
    points = data.draw(st.lists(_points(branch - 1), max_size=8))
    index = incidence(space, points)
    scanned = scan_through(space.basis.elements, points)
    assert {a: index.get(a, ()) for a in space.basis.elements} == scanned
    assert set(index) <= set(space.basis.elements)
    assert ext_map(space, points) == {a: frozenset(qs) for a, qs in scanned.items()}


@settings(max_examples=120, deadline=None)
@given(_points(4), st.sampled_from([2, 3]), st.integers(0, 4))
def test_prefix_chains_match_the_target_tree_scan(point, branch, depth):
    # entries up to 4 step outside both trees, where the chain is cut
    chain = prefix_chain(point.prefix_of(depth), branch)
    assert frozenset(chain) == scan_observation(point, branch, depth)
    assert [len(u) for u in chain] == list(range(len(chain)))
    for seq in all_sequences(branch, depth):
        assert frozenset(prefix_chain(seq, branch)) == scan_generic(seq, branch, depth)
