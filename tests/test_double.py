import json
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from map_oracle import canonical_maps, compose_maps, identity_map, map_from_pairs, pt_functor
from point_oracle import is_point
from sheafbench.double import DOpen, DoubleSpace, SingletonOpen, build_double
from sheafbench.forcing import standard_model
from sheafbench.jsonio import space_from_json
from sheafbench.maps import check_continuous_map
from sheafbench.points import Point, eventually_constant_points, point_members
from sheafbench.site import CoveringSystem, Sieve, check_topology_axioms
from sheafbench.spaces import baire_space, bracket, cantor_space


def double_leq(x, y) -> bool:
    """Oracle: the order of the double, stated as a relation on its opens."""
    if isinstance(x, DOpen) and isinstance(y, DOpen):
        return x.seq[: len(y.seq)] == y.seq
    if isinstance(x, SingletonOpen) and isinstance(y, DOpen):
        return x.point.passes_through(y.seq)
    if isinstance(x, SingletonOpen) and isinstance(y, SingletonOpen):
        return x == y
    return False


def _standard_double(depth=2, max_prefix=1):
    inner = cantor_space(depth)
    pts = eventually_constant_points(2, max_prefix)
    return build_double(inner, pts)


def _point_sets(dbl, **kwargs) -> dict:
    """Member set of each point of the double, read off the forcing model's index.

    A chosen point's set holds its own open {q} (the point anchored at {q});
    any other stream's holds copies D(u) only (an inner point lifted).
    """
    members: dict = {}
    for stage, points in standard_model(dbl, **kwargs).through.items():
        for q in points:
            members.setdefault(q, set()).add(stage)
    return {q: frozenset(xs) for q, xs in members.items()}


def test_double_basis_has_both_kinds():
    dbl = _standard_double()
    dopens = [x for x in dbl.basis.elements if isinstance(x, DOpen)]
    singles = [x for x in dbl.basis.elements if isinstance(x, SingletonOpen)]
    assert len(dopens) == 7
    assert len(singles) == 4


def test_double_order():
    dbl = _standard_double()
    q = Point((), 0)
    assert double_leq(dbl.singleton(q), dbl.d((0, 0)))
    assert not double_leq(dbl.singleton(q), dbl.d((1,)))
    assert double_leq(dbl.d((0, 1)), dbl.d((0,)))
    assert not double_leq(dbl.d((0,)), dbl.singleton(q))
    # point opens are minimal
    assert dbl.basis.down(dbl.singleton(q)) == (dbl.singleton(q),)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([2, 3]),
    st.integers(0, 3),
    st.integers(0, 3),
    st.lists(st.tuples(st.lists(st.integers(0, 1), max_size=5), st.integers(0, 1)), max_size=3),
)
def test_double_down_sets_match_the_relation(branch, depth, max_prefix, deep):
    inner = cantor_space(depth) if branch == 2 else baire_space(3, min(depth, 2))
    points = set(eventually_constant_points(branch, max_prefix))
    points |= {Point(tuple(prefix), tail) for prefix, tail in deep}
    points.add(Point((0, 1, 0), 1))
    dbl = build_double(inner, points)
    opens = dbl.basis.elements
    assert len(opens) == len(inner.basis) + len(points)
    for y in opens:
        assert dbl.basis.below(y) == {x for x in opens if double_leq(x, y)}
    assert dbl.system._table == _validated_system(dbl)._table


def test_building_a_double_asks_no_point_for_its_prefixes(monkeypatch):
    # tree spaces and doubles are valid by construction: building one asks no
    # point for its prefixes and validates no covering system
    calls = {"passes_through": 0, "validate": 0}

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(owner, name, counted)

    count(Point, "passes_through")
    count(CoveringSystem, "validate")
    cantor_space(6)
    baire_space(3, 3)
    dbl = build_double(cantor_space(5), eventually_constant_points(2, 3))
    assert len(dbl.points) == 16
    loaded = space_from_json({"kind": "double", "inner": {"kind": "cantor", "depth": 5},
                              "max_prefix": 3})
    assert loaded.basis.elements == dbl.basis.elements
    space_from_json({"kind": "cantor", "depth": 6})
    space_from_json({"kind": "baire", "branch": 3, "depth": 3})
    assert calls == {"passes_through": 0, "validate": 0}


def _validated_system(space) -> CoveringSystem:
    """The covering system of a tree space or a double, from the definition
    of its families through the validating constructor, which checks each
    member and puts it in canonical order."""
    if isinstance(space, DoubleSpace):
        inner = _validated_system(space.inner)
        families = {SingletonOpen(q): [{SingletonOpen(q)}] for q in space.points}
        for u in space.inner.basis.elements:
            families[DOpen(u)] = [
                {DOpen(v) for v in fam}
                | {SingletonOpen(q) for q in space.points if any(q.passes_through(v) for v in fam)}
                for fam in inner.families_at(u)
            ]
        return CoveringSystem(space.basis, families)
    depth = space.depth
    if space.kind == "cantor":
        families = {u: [set(bracket(2, u, q)) for q in range(len(u), depth + 1)]
                    for u in space.basis.elements}
    else:
        families = {u: [{u + (n,) for n in range(space.branch)} if len(u) < depth else {u}]
                    for u in space.basis.elements}
    return CoveringSystem(space.basis, families)


# every tree space the suites and the depth sweep build (Cantor and
# Baire(2) to depth 11), and the wider ones up to the sweep's size
_TREES = [("cantor", 2, d) for d in range(12)] + [
    ("baire", b, d) for b in range(1, 6) for d in range(12)
    if sum(b ** k for k in range(d + 1)) <= 2 ** 12 - 1
]


def _spaces_of(doc):
    """Every space description nested in a corpus document."""
    if isinstance(doc, dict):
        if doc.get("kind") in ("cantor", "baire", "double"):
            yield doc
        for value in doc.values():
            yield from _spaces_of(value)
    elif isinstance(doc, list):
        for value in doc:
            yield from _spaces_of(value)


def test_the_extract_corpus_builds_no_other_tree_space():
    corpus = pathlib.Path(__file__).parents[1] / "perfbench" / "corpus" / "extract.json"
    found = {(d["kind"], d.get("branch", 2), d["depth"])
             for row in json.loads(corpus.read_text(encoding="utf-8"))
             for d in _spaces_of(row["doc"])}
    assert found and found <= set(_TREES)


@pytest.mark.parametrize("kind, branch, depth", _TREES)
def test_packed_systems_equal_the_validated_ones(kind, branch, depth):
    # the tree spaces and their doubles skip the constructor's checks; the
    # rules double a space over the points of prefix length 1, the site
    # corpus and the tests up to 3
    space = cantor_space(depth) if kind == "cantor" else baire_space(branch, depth)
    assert space.system._table == _validated_system(space)._table
    caps = (0, 1, 2, 3) if len(space.basis) <= 400 else (1,)
    for cap in caps:
        dbl = build_double(space, eventually_constant_points(branch, cap))
        assert dbl.system._table == _validated_system(dbl)._table, cap


def test_rejects_streams_outside_the_branching():
    inner = cantor_space(2)
    with pytest.raises(ValueError):
        build_double(inner, [Point((2,), 0)])
    with pytest.raises(ValueError):
        build_double(inner, [Point((), 5)])


def test_deep_prefixes_are_fine_and_points_dedupe():
    inner = cantor_space(2)
    dbl = build_double(inner, [Point((0, 1, 0), 1), Point((0, 1, 1), 0)])
    # both streams agree on every prefix the truncation can see, but they are
    # different points, so both opens exist
    assert len(dbl.points) == 2
    same = build_double(inner, [Point((0, 0), 0), Point((), 0)])
    assert len(same.points) == 1  # (0,0)|0 normalizes to (|0)


def test_singleton_covers_are_trivial():
    dbl = _standard_double()
    q = Point((), 0)
    anchored = dbl.singleton(q)
    # restrict a sieve through the branch the point follows down to {q}
    through = Sieve.from_generators(dbl.basis, dbl.d(()), [dbl.d((0,))]).restrict(anchored)
    assert through.contains(anchored)
    assert dbl.topology.cover(anchored, through).covered
    avoid = Sieve.from_generators(dbl.basis, anchored, [])
    res = dbl.topology.cover(anchored, avoid)
    assert not res.covered
    assert res.frontier == (anchored,)


def test_dopen_covers_mirror_inner_covers():
    dbl = _standard_double()
    children = Sieve.from_generators(dbl.basis, dbl.d(()), [dbl.d((0,)), dbl.d((1,))])
    res = dbl.topology.cover(dbl.d(()), children)
    assert res.covered and res.depth == 1
    lonely = Sieve.from_generators(dbl.basis, dbl.d(()), [dbl.d((0,))])
    assert not dbl.topology.cover(dbl.d(()), lonely).covered


def test_point_opens_are_free_members_of_d_sieves():
    dbl = _standard_double()
    children = Sieve.from_generators(dbl.basis, dbl.d(()), [dbl.d((0,)), dbl.d((1,))])
    for q in dbl.points:
        assert children.contains(dbl.singleton(q))


def test_double_system_satisfies_covering_axiom():
    dbl = _standard_double()
    dbl.system.validate()


def test_double_topology_axioms_on_samples():
    dbl = _standard_double()
    report = check_topology_axioms(dbl, sieve_cap=24)
    assert report.ok


def test_anchored_and_lifted_member_sets_are_points():
    dbl = _standard_double()
    sets = _point_sets(dbl)
    for q, members in sets.items():
        lifted = frozenset(x for x in members if isinstance(x, DOpen))
        assert members - lifted == ({dbl.singleton(q)} if q in dbl.points else set())
        for kind, alpha in (("anchored", members), ("lifted", lifted)):
            verdict = is_point(dbl, alpha)
            assert verdict.ok, (kind, q, verdict)


def test_bare_singleton_is_not_a_point():
    dbl = _standard_double()
    q = Point((), 0)
    verdict = is_point(dbl, {dbl.singleton(q)})
    assert not verdict.ok
    assert verdict.failed_condition == 1


def test_model_index_lists_chosen_points_first():
    dbl = build_double(cantor_space(2), [Point((1, 0), 1), Point((), 0)])
    through = standard_model(dbl, prefix_cap=2).through
    streams = eventually_constant_points(2, 2)
    assert dbl.points == (Point((), 0), Point((1, 0), 1)) and len(streams) == 8
    assert through[dbl.d(())] == dbl.points + tuple(q for q in streams if q not in dbl.points)
    assert through[dbl.d((1,))] == (
        Point((1, 0), 1), Point((), 1), Point((1,), 0), Point((1, 1), 0))
    for q in dbl.points:
        assert through[dbl.singleton(q)] == (q,)
    # a stream outside the chosen family is lifted, never anchored
    assert len(_point_sets(dbl, prefix_cap=2)) == 8
    assert sum(isinstance(x, SingletonOpen) for x in through) == 2


def test_canonical_maps_are_continuous():
    dbl = _standard_double()
    cm = canonical_maps(dbl)
    for fmap in (cm.mu, cm.pi, cm.nu):
        assert check_continuous_map(fmap).ok


def test_canonical_maps_are_saturated():
    dbl = _standard_double()
    cm = canonical_maps(dbl)
    for fmap in (cm.mu, cm.pi, cm.nu):
        again = map_from_pairs(fmap.source, fmap.target, fmap.pairs)
        assert again.pairs == fmap.pairs


def test_pi_after_mu_is_identity():
    dbl = _standard_double()
    cm = canonical_maps(dbl)
    ident = identity_map(dbl.inner)
    assert compose_maps(cm.mu, cm.pi).pairs == ident.pairs


def test_mu_after_pi_collapses_points():
    dbl = _standard_double()
    cm = canonical_maps(dbl)
    roundtrip = compose_maps(cm.pi, cm.mu)
    ident = identity_map(dbl)
    # the composite forgets that {q} was an extra open, so it is not the identity
    assert roundtrip.pairs != ident.pairs
    q = dbl.points[0]
    assert not roundtrip.related(dbl.singleton(q), dbl.singleton(q))


def test_pt_functor_on_canonical_maps():
    dbl = _standard_double()
    cm = canonical_maps(dbl)
    inner = dbl.inner
    q = Point((0,), 1)
    alpha = point_members(inner, q)
    anchored = _point_sets(dbl)[q]
    lifted = anchored - {dbl.singleton(q)}
    assert pt_functor(cm.mu, [alpha])[alpha] == lifted
    assert pt_functor(cm.pi, [anchored])[anchored] == alpha
    nu_input = frozenset({q})
    assert pt_functor(cm.nu, [nu_input])[nu_input] == anchored
