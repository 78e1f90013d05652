import itertools

import pytest

from sheafbench.double import build_double
from sheafbench.points import Point, eventually_constant_points
from sheafbench.sheaves import (
    ConstantPresheaf,
    EmptyCoverPresent,
    IncompatibleAssignment,
    NatSection,
    NotASection,
    derived_sheaves,
    finseq_sheaf,
    finseq_values,
    make_section,
    map_to_section,
    nat_sheaf,
    pure_density_check,
    pure_section,
    restrict_section,
    section_map_bijection_check,
    section_to_map,
    sheaf_check,
    sheaf_check_covering_system,
    stream_obs_values,
    stream_sheaf,
    value_at,
)
from sheafbench.site import Basis, CoveringSystem, FormalSpace, generate_topology
from sheafbench.spaces import baire_space, cantor_space


def _leaf_section(space, leaf_values):
    return make_section(space, (), list(leaf_values.items()))


def test_make_section_merges_constant_zones():
    space = cantor_space(2)
    sec = _leaf_section(
        space, {(0, 0): 7, (0, 1): 7, (1, 0): 7, (1, 1): 7}
    )
    assert sec == pure_section(space, (), 7)
    assert sec.is_pure()


def test_make_section_keeps_maximal_zone_opens():
    space = cantor_space(2)
    sec = _leaf_section(space, {(0, 0): 1, (0, 1): 1, (1, 0): 2, (1, 1): 3})
    assert sec.pieces == (((0,), 1), ((1, 0), 2), ((1, 1), 3))


def test_make_section_rejects_partial_assignments():
    space = cantor_space(2)
    with pytest.raises(NotASection):
        make_section(space, (), [((0, 0), 1)])


def test_make_section_rejects_overlapping_values():
    space = cantor_space(2)
    with pytest.raises(IncompatibleAssignment):
        make_section(space, (), [((), 1), ((0, 0), 2), ((0, 1), 2), ((1,), 2)])


def test_value_at_reads_germs():
    space = cantor_space(2)
    sec = _leaf_section(space, {(0, 0): 1, (0, 1): 1, (1, 0): 2, (1, 1): 3})
    assert value_at(space, sec, (0, 1)) == 1
    assert value_at(space, sec, (0,)) == 1
    assert value_at(space, sec, (1,)) is None
    assert value_at(space, sec, ()) is None


def test_restriction_laws_hold_pointwise():
    space = cantor_space(2)
    sec = _leaf_section(space, {(0, 0): 1, (0, 1): 4, (1, 0): 2, (1, 1): 3})
    assert restrict_section(space, sec, ()) == sec
    left = restrict_section(space, sec, (0,))
    assert left.pieces == (((0, 0), 1), ((0, 1), 4))
    twice = restrict_section(space, left, (0, 0))
    assert twice == pure_section(space, (0, 0), 1)


def test_nat_sheaf_counts_sections_by_atoms():
    space = cantor_space(2)
    sheaf = nat_sheaf(space, 2)
    assert len(sheaf.sections(())) == 16
    assert len(set(sheaf.sections(()))) == 16
    assert len(sheaf.sections((0, 1))) == 2


def test_sheaf_laws_on_cantor():
    space = cantor_space(2)
    report = sheaf_check(nat_sheaf(space, 2))
    assert report.ok
    assert report.checked_families > 0


def test_sheaf_laws_on_double():
    inner = cantor_space(2)
    dbl = build_double(inner, eventually_constant_points(2, 1))
    report = sheaf_check(nat_sheaf(dbl, 2))
    assert report.ok


def test_sections_on_double_match_inner_sections():
    # germs at the extra point opens are forced by the tree part
    inner = cantor_space(2)
    dbl = build_double(inner, eventually_constant_points(2, 1))
    sheaf_inner = nat_sheaf(inner, 3)
    sheaf_dbl = nat_sheaf(dbl, 3)
    assert len(sheaf_dbl.sections(dbl.d(()))) == len(sheaf_inner.sections(()))
    q = dbl.points[0]
    assert len(sheaf_dbl.sections(dbl.singleton(q))) == 3


def test_singleton_sections_are_pure_values():
    inner = cantor_space(2)
    dbl = build_double(inner, eventually_constant_points(2, 1))
    sheaf = nat_sheaf(dbl, 3)
    q = dbl.singleton(dbl.points[0])
    assert set(sheaf.sections(q)) == {pure_section(dbl, q, n) for n in range(3)}


def test_section_value_at_singleton_follows_the_point():
    inner = cantor_space(2)
    dbl = build_double(inner, eventually_constant_points(2, 1))
    sheaf = nat_sheaf(dbl, 2)
    atoms = sheaf.atoms(dbl.d(()))
    values = {t: (1 if t.seq[0] == 0 else 0) for t in atoms}
    sec = make_section(dbl, dbl.d(()), list(values.items()))
    q0 = dbl.singleton(Point((), 0))  # runs down the left branch
    assert value_at(dbl, sec, q0) == 1


def test_finseq_and_stream_sheaves_share_the_machinery():
    space = cantor_space(1)
    fs = finseq_sheaf(space, 2, 1)
    assert set(fs.values) == {(), (0,), (1,)}
    assert len(fs.sections(())) == 9
    st = stream_sheaf(space, 2)
    # one observation class per leaf of the depth-1 tree
    assert st.values == (Point((), 0), Point((1,), 0))
    assert len(st.sections(())) == 4
    assert sheaf_check(fs).ok
    assert sheaf_check(st).ok


def test_finseq_values_enumeration():
    # canonical order is by length, then lexicographic
    vals = finseq_values(2, 2)
    assert vals == ((), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1))


def test_pure_density():
    space = cantor_space(2)
    assert pure_density_check(nat_sheaf(space, 2)).ok
    inner = cantor_space(2)
    dbl = build_double(inner, eventually_constant_points(2, 1))
    assert pure_density_check(nat_sheaf(dbl, 2)).ok


def test_sections_biject_with_maps_to_discrete():
    space = cantor_space(2)
    sheaf = nat_sheaf(space, 2)
    report = section_map_bijection_check(sheaf, ())
    assert report.ok
    assert report.sections == 16


def test_bijection_on_double_root():
    inner = cantor_space(1)
    dbl = build_double(inner, eventually_constant_points(2, 0))
    sheaf = nat_sheaf(dbl, 2)
    report = section_map_bijection_check(sheaf, dbl.d(()))
    assert report.ok


def test_map_to_section_needs_single_values():
    space = cantor_space(1)
    sheaf = nat_sheaf(space, 2)
    sec = pure_section(space, (), 1)
    fmap = section_to_map(sheaf, sec)
    assert map_to_section(sheaf, (), fmap) == sec


def test_derived_sheaves_cover_all_sorts():
    dbl = build_double(cantor_space(2), eventually_constant_points(2, 1))
    got = derived_sheaves(dbl)
    assert set(got) == {"two", "finseq2", "seq2", "finseqN", "seqN"}
    assert got["two"].values == (0, 1)
    assert got["finseq2"].label == "finseq2"
    # binary tree: the N-ary sorts coincide with the binary ones
    assert got["finseqN"].values == got["finseq2"].values
    assert got["seqN"].values == got["seq2"].values

    wide = derived_sheaves(baire_space(3, 1))
    assert len(wide["seqN"].values) == 3
    assert len(wide["seq2"].values) == 2


def test_seq2_global_section_is_the_projection_graph():
    dbl = build_double(cantor_space(2), eventually_constant_points(2, 1))
    seq2 = derived_sheaves(dbl)["seq2"]

    def obs_class(seq):
        matches = [v for v in seq2.values if v.passes_through(seq)]
        assert len(matches) == 1
        return matches[0]

    assignments = []
    for atom in seq2.atoms(dbl.d(())):
        if hasattr(atom, "seq"):
            assignments.append((atom, obs_class(atom.seq)))
        else:
            assignments.append((atom, obs_class(atom.point.prefix_of(2))))
    graph = make_section(dbl, dbl.d(()), assignments)
    assert not graph.is_pure()
    assert graph in seq2.sections(dbl.d(()))
    # each point open reads off its own stream's observation class
    for q in dbl.points:
        got = value_at(dbl, graph, dbl.singleton(q))
        assert got == obs_class(q.prefix_of(2))
    # undecided stages have no constant value yet
    assert value_at(dbl, graph, dbl.d(())) is None
    assert value_at(dbl, graph, dbl.d((0, 0))) == obs_class((0, 0))


def test_sheaf_check_covering_system_matches_full_check():
    space = cantor_space(2)
    sheaf = nat_sheaf(space, 2)
    c_report = sheaf_check_covering_system(sheaf)
    full = sheaf_check(sheaf)
    assert c_report.ok and full.ok
    assert c_report.checked_families <= full.checked_families


def test_failing_presheaf_fails_on_c_families_too():
    # purely constant sections cannot glue a two-piece mixed cover
    space = cantor_space(1)
    rigid = ConstantPresheaf(space, (0, 1), lambda a: (a,), label="rigid")
    assert not sheaf_check(rigid).ok
    assert not sheaf_check_covering_system(rigid, cross_sample=0).ok


def test_pure_density_contract_rejects_stream_sheaves():
    dbl = build_double(cantor_space(2), eventually_constant_points(2, 1))
    got = derived_sheaves(dbl)
    assert pure_density_check(got["two"]).ok
    assert pure_density_check(got["finseq2"]).ok
    assert pure_density_check(got["finseqN"]).ok
    with pytest.raises(ValueError):
        pure_density_check(got["seq2"])
    with pytest.raises(ValueError):
        pure_density_check(got["seqN"])


def test_empty_cover_rejected_by_sheaf_factories():
    basis = Basis(["x"], lambda a, b: a == b)
    system = CoveringSystem(basis, {"x": ((),)})
    space = FormalSpace(basis, generate_topology(system), system)
    with pytest.raises(EmptyCoverPresent):
        nat_sheaf(space, 2)
