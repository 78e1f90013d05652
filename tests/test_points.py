from sheafbench.points import (
    Point,
    enough_points_check,
    eventually_constant_points,
    ext_map,
    is_point,
    point_members,
    pt_space,
)
from sheafbench.site import Sieve
from sheafbench.spaces import cantor_space


def _stream_prefix(point, n):
    return tuple(point.value(i) for i in range(n))


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


def test_is_point_accepts_eventually_constant_streams():
    space = cantor_space(3)
    for p in eventually_constant_points(2, 3):
        assert is_point(space, p).ok


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
