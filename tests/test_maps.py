from map_oracle import compose_maps, identity_map, map_from_pairs, point_as_map, pt_functor
from sheafbench.maps import (
    STAR,
    ContinuousMap,
    check_continuous_map,
    discrete_space,
    one_point_space,
)
from sheafbench.points import Point, eventually_constant_points, point_members
from sheafbench.spaces import cantor_space


def _order_pairs(space):
    return frozenset(
        (p, q)
        for p in space.basis.elements
        for q in space.basis.elements
        if space.basis.leq(p, q)
    )


def _shift_map(src, tgt):
    """Drop the first entry of every sequence: tgt must be one level shallower."""
    pairs = {
        (u, v)
        for u in src.basis.elements
        for v in tgt.basis.elements
        if u[1:][: len(v)] == v
    }
    return ContinuousMap(src, tgt, frozenset(pairs))


def test_identity_pairs_are_the_order():
    space = cantor_space(2)
    ident = identity_map(space)
    assert ident.pairs == _order_pairs(space)
    assert check_continuous_map(ident).ok


def test_identity_is_saturated_already():
    space = cantor_space(2)
    ident = identity_map(space)
    again = map_from_pairs(space, space, ident.pairs)
    assert again.pairs == ident.pairs


def test_point_as_map_is_continuous_for_points():
    space = cantor_space(2)
    for p in eventually_constant_points(2, 2):
        fmap = point_as_map(space, p)
        assert check_continuous_map(fmap).ok


def test_point_as_map_rejects_two_branch_subset():
    space = cantor_space(2)
    fmap = point_as_map(space, {(), (0,), (1,)})
    verdict = check_continuous_map(fmap)
    assert not verdict.ok
    # the two branches have no common refinement in the image
    assert 3 in {cond for cond, _ in verdict.failures}


def test_fiber_closure_violation_is_reported():
    space = cantor_space(2)
    broken = _order_pairs(space) - {((0,), (0,))}
    fmap = ContinuousMap(space, space, frozenset(broken))
    verdict = check_continuous_map(fmap)
    assert not verdict.ok
    assert (5, ((0,), (0,))) in verdict.failures


def test_saturation_repairs_fiber_closure():
    space = cantor_space(2)
    broken = _order_pairs(space) - {((0,), (0,))}
    fmap = map_from_pairs(space, space, broken)
    assert fmap.pairs == _order_pairs(space)
    assert check_continuous_map(fmap).ok


def test_everywhere_undecided_relation_fails_cover_preimage():
    space = cantor_space(1)
    pairs = {(u, ()) for u in space.basis.elements}
    fmap = ContinuousMap(space, space, frozenset(pairs))
    verdict = check_continuous_map(fmap)
    assert not verdict.ok
    assert {cond for cond, _ in verdict.failures} == {4}


def test_shift_map_is_continuous():
    src, tgt = cantor_space(2), cantor_space(1)
    fmap = _shift_map(src, tgt)
    assert check_continuous_map(fmap).ok


def test_shift_map_acts_as_stream_shift_on_points():
    src, tgt = cantor_space(2), cantor_space(1)
    fmap = _shift_map(src, tgt)
    pts = eventually_constant_points(2, 2)
    table = pt_functor(fmap, [point_members(src, p) for p in pts])
    for p in pts:
        shifted = Point(p.prefix[1:], p.tail)
        assert table[point_members(src, p)] == point_members(tgt, shifted)


def test_pt_functor_is_functorial_on_shifts():
    big, mid, small = cantor_space(3), cantor_space(2), cantor_space(1)
    f = _shift_map(big, mid)
    g = _shift_map(mid, small)
    gf = compose_maps(f, g)
    assert check_continuous_map(gf).ok
    inputs = [point_members(big, p) for p in eventually_constant_points(2, 3)]
    direct = pt_functor(gf, inputs)
    staged = {
        alpha: pt_functor(g, [pt_functor(f, [alpha])[alpha]])[
            pt_functor(f, [alpha])[alpha]
        ]
        for alpha in inputs
    }
    assert direct == staged


def test_compose_with_identity_is_identity():
    space = cantor_space(2)
    ident = identity_map(space)
    assert compose_maps(ident, ident).pairs == ident.pairs


def test_discrete_space_covers_by_membership():
    from sheafbench.site import Sieve

    space = discrete_space(("a", "b"))
    s = Sieve.from_generators(space.basis, "a", ["a"])
    assert space.topology.cover("a", s).covered
    empty = Sieve.empty(space.basis, "a")
    assert not space.topology.cover("a", empty).covered


def test_one_point_space_star():
    one = one_point_space()
    assert one.basis.elements == (STAR,)
