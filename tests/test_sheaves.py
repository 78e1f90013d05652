import dataclasses
import functools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from cover_oracle import own_cover_topologies
from order_oracle import generate_topology
from section_oracle import (
    check_family_by_product,
    from_zones_per_value,
    restrict_by_covers,
    sections_by_covers,
)
from sheafbench import sheaves, suites
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
    make_section,
    map_to_section,
    nat_sheaf,
    pure_density_check,
    restrict_section,
    section_map_bijection_check,
    section_to_map,
    sheaf_check,
    space_atoms,
    stream_sheaf,
    value_at,
)
from sheafbench.randomgen import random_covering_system, random_preorder
from sheafbench.site import (
    Basis,
    CoveringSystem,
    FormalSpace,
    GeneratedTopology,
    Sieve,
    Topology,
    UnknownElement,
    sieves_on,
)
from sheafbench.spaces import all_sequences, baire_space, cantor_space
from sheafbench.suites import _standard_spaces, sheaf_suite


def _leaf_section(space, leaf_values):
    return make_section(space, (), list(leaf_values.items()))


def test_make_section_merges_constant_zones():
    space = cantor_space(2)
    sec = _leaf_section(
        space, {(0, 0): 7, (0, 1): 7, (1, 0): 7, (1, 1): 7}
    )
    assert sec == NatSection((), (((), 7),))
    assert sec.pieces == ((sec.root, 7),)


def test_make_section_keeps_maximal_zone_opens():
    space = cantor_space(2)
    sec = _leaf_section(space, {(0, 0): 1, (0, 1): 1, (1, 0): 2, (1, 1): 3})
    assert sec.pieces == (((0,), 1), ((1, 0), 2), ((1, 1), 3))


def test_make_section_keeps_one_open_of_each_equivalent_pair():
    # a and b lie below each other: the piece is the first in canonical order
    basis = Basis.from_pairs(["a", "b"], [("a", "b"), ("b", "a")])
    system = CoveringSystem(basis, {})
    space = FormalSpace(basis, generate_topology(system), system)
    for root in ("a", "b"):
        sec = make_section(space, root, [(root, 1)])
        assert sec.pieces == (("a", 1),)
        assert value_at(space, sec, "b") == 1
        assert restrict_section(space, sec, "b") == NatSection("b", (("a", 1),))


def test_make_section_rejects_partial_assignments():
    space = cantor_space(2)
    with pytest.raises(NotASection):
        make_section(space, (), [((0, 0), 1)])


def test_make_section_rejects_overlapping_values():
    # values in sorted order, each zone against the earlier ones: the first
    # open of the overlap in canonical order is named
    space = cantor_space(2)
    with pytest.raises(IncompatibleAssignment, match=r"^\(\) lies in the zones of 1 and 2$"):
        make_section(space, (), [((), 1), ((0, 0), 2), ((0, 1), 2), ((1,), 2)])
    with pytest.raises(IncompatibleAssignment, match=r"^\(0, 1\) lies in the zones of 1 and 2$"):
        make_section(space, (), [((0,), 2), ((1,), 3), ((0, 1), 1), ((1, 0), 1)])


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
    assert twice == NatSection((0, 0), (((0, 0), 1),))


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
    assert set(sheaf.sections(q)) == {NatSection(q, ((q, n),)) for n in range(3)}


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
    vals = all_sequences(2, 2)
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
    sec = NatSection((), (((), 1),))
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
    assert len(graph.pieces) > 1
    assert graph in seq2.sections(dbl.d(()))
    # each point open reads off its own stream's observation class
    for q in dbl.points:
        got = value_at(dbl, graph, dbl.singleton(q))
        assert got == obs_class(q.prefix_of(2))
    # undecided stages have no constant value yet
    assert value_at(dbl, graph, dbl.d(())) is None
    assert value_at(dbl, graph, dbl.d((0, 0))) == obs_class((0, 0))


def test_covering_system_families_alone_match_the_full_check():
    # sieve_cap=0 checks the covering system's families alone, which the
    # generated topology makes sufficient: the verdict agrees with the full check
    for _, space in _standard_spaces(2):
        sheaves_here = {"nat": nat_sheaf(space, 2), **derived_sheaves(space)}
        for presheaf in sheaves_here.values():
            elems = [a for a in space.basis.elements if presheaf.section_count(a) <= 64]
            c_report = sheaf_check(presheaf, elements=elems, sieve_cap=0)
            full = sheaf_check(presheaf, elements=elems)
            assert c_report.ok and full.ok
            assert c_report.checked_families == sum(
                len(space.system.families_at(a)) for a in elems)
            assert c_report.checked_families <= full.checked_families


def test_failing_presheaf_fails_on_c_families_too():
    # purely constant sections cannot glue a two-piece mixed cover
    space = cantor_space(1)
    rigid = ConstantPresheaf(space, (0, 1), lambda a: (a,), label="rigid")
    assert not sheaf_check(rigid).ok
    assert not sheaf_check(rigid, sieve_cap=0).ok


class _MisRestricted(ConstantPresheaf):
    """Every proper restriction is a fresh section remembering its source."""

    def restrict(self, section, b):
        return section if b == section.root else NatSection(b, (("from", section),))


def test_the_law_pass_stops_at_max_failures():
    space = cantor_space(3)
    presheaf = _MisRestricted(space, (0, 1), space.leaves)
    capped = sheaf_check(presheaf, elements=((),), max_failures=1, sieve_cap=0)
    assert [kind for kind, *_ in capped.law_failures] == ["composition"]
    assert len(sheaf_check(presheaf, elements=((),), max_failures=5).law_failures) == 5
    assert len(sheaf_check(presheaf, elements=((),), max_failures=10**6).law_failures) > 5


@pytest.mark.parametrize("on_system", [True, False], ids=["system-family", "sampled-family"])
def test_sheaf_suite_witness_says_whether_a_system_family_failed(monkeypatch, on_system):
    # one report carries both verdicts: the system's families fail only when
    # a failure sits on one of them
    space = cantor_space(2)
    fam = ((0,), (1,)) if on_system else ((0,), (1, 0), (1, 1))
    assert (fam in space.system.families_at(())) == on_system
    check = suites.sheaf_check

    def one_glue_failure(presheaf, elements, sieve_cap):
        report = check(presheaf, elements=elements, sieve_cap=sieve_cap)
        return dataclasses.replace(report, glue_failures=(((), fam, (), 0),))

    monkeypatch.setattr(suites, "_standard_spaces", lambda depth: (("cantor", space),))
    monkeypatch.setattr(suites, "sheaf_check", one_glue_failure)
    result = sheaf_suite()
    assert not result.passed
    verdicts = [w for w in result.witnesses if "system_ok" in w]
    assert len(verdicts) == 6
    assert {(w["sampled_ok"], w["system_ok"]) for w in verdicts} == {(False, not on_system)}


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
    basis = Basis({"x": ("x",)})
    system = CoveringSystem(basis, {"x": ((),)})
    space = FormalSpace(basis, generate_topology(system), system)
    with pytest.raises(EmptyCoverPresent):
        nat_sheaf(space, 2)


def test_derived_sheaves_check_positivity_once(monkeypatch):
    calls = []
    require_positive = sheaves.require_positive

    def counted(space):
        calls.append(space)
        require_positive(space)

    monkeypatch.setattr(sheaves, "require_positive", counted)
    derived_sheaves(cantor_space(2))
    assert len(calls) == 1


def test_sheaf_suite_checks_positivity_once_per_space(monkeypatch):
    calls = []
    require_positive = sheaves.require_positive

    def counted(space):
        calls.append(space)
        require_positive(space)

    monkeypatch.setattr(sheaves, "require_positive", counted)
    assert sheaf_suite(depth=1, budget=4).passed
    assert len(calls) == len({id(space) for space in calls}) == 4


def test_restrict_section_rejects_an_open_outside_the_root():
    space = cantor_space(2)
    sec = _leaf_section(space, {(0, 0): 1, (0, 1): 4, (1, 0): 2, (1, 1): 3})
    left = restrict_section(space, sec, (0,))
    with pytest.raises(ValueError):
        restrict_section(space, left, (1,))
    with pytest.raises(ValueError):
        restrict_section(space, left, ())


def test_restrict_section_rejects_an_unknown_open_before_asking_the_root():
    # an unknown open is outside every root too: the unknown element is named
    space = cantor_space(2)
    left = restrict_section(space, _leaf_section(space, {(0, 0): 1, (0, 1): 4, (1, 0): 2, (1, 1): 3}), (0,))
    for b in ((2,), (0, 0, 0)):
        with pytest.raises(UnknownElement):
            restrict_section(space, left, b)


def test_restriction_below_a_piece_is_the_first_open_of_the_class():
    # x and y lie below each other and below the piece p; canonical order
    # lists the root r after p and q, so it is not top-down
    basis = Basis({"r": "rpqxyz", "p": "pxyz", "q": "q", "x": "xyz", "y": "xyz", "z": "z"})
    system = CoveringSystem(basis, {"r": [("p", "q")], **{a: [(a,)] for a in "pqxyz"}})
    space = FormalSpace(basis, generate_topology(system), system)
    sec = make_section(space, "r", [("p", 1), ("q", 2)])
    assert sec.pieces == (("p", 1), ("q", 2))
    for b, first in (("x", "x"), ("y", "x"), ("z", "z"), ("p", "p")):
        got = restrict_section(space, sec, b)
        assert got == NatSection(b, ((first, 1),)) == restrict_by_covers(space, sec, b)


@functools.cache
def _standard_sheaves():
    """The six value sheaves of the sheaf suite on each depth-3 standard space."""
    return tuple(
        (space, presheaf)
        for _, space in _standard_spaces(3)
        for presheaf in (nat_sheaf(space, 2), *derived_sheaves(space).values())
    )


SECTION_BUDGET = 64


@settings(max_examples=300)
@given(st.data())
def test_restriction_by_zones_matches_the_cover_oracle_on_the_standard_spaces(data):
    # every section of a value sheaf over an open with at most SECTION_BUDGET
    # sections, cut down to an open below it
    space, presheaf = data.draw(st.sampled_from(_standard_sheaves()))
    roots = [a for a in space.basis.elements if presheaf.section_count(a) <= SECTION_BUDGET]
    a = data.draw(st.sampled_from(roots))
    b = data.draw(st.sampled_from(space.basis.down(a)))
    for section in presheaf.sections(a):
        assert restrict_section(space, section, b) == restrict_by_covers(space, section, b)


@settings(max_examples=400)
@given(st.integers(0, 2**32 - 1), st.integers(1, 7), st.data())
def test_restriction_by_zones_matches_the_cover_oracle_on_random_preorders(seed, size, data):
    # random covering systems on random preorders, which have equivalent
    # elements; spaces with an empty cover and assignments that are no
    # section are skipped; most opens are left unassigned, since two opens,
    # one below the other, with different values make their zones overlap
    rng = random.Random(seed)
    basis = random_preorder(rng, size)
    system = random_covering_system(rng, basis)
    space = FormalSpace(basis, GeneratedTopology(system), system)
    try:
        sheaves.require_positive(space)
    except EmptyCoverPresent:
        return
    root = data.draw(st.sampled_from(basis.elements))
    fragment = basis.down(root)
    values = data.draw(st.lists(st.sampled_from((None, None, None, 0, 1, 2)),
                                min_size=len(fragment), max_size=len(fragment)))
    assignment = [(x, v) for x, v in zip(fragment, values) if v is not None]
    try:
        section = make_section(space, root, assignment)
    except (NotASection, IncompatibleAssignment):
        return
    for b in fragment:
        assert restrict_section(space, section, b) == restrict_by_covers(space, section, b)


def test_the_sheaf_layer_never_asks_the_order_pairwise(monkeypatch):
    # restriction intersects zones: no leq question anywhere in sheaf_check,
    # and no make_section, so no cover test, inside restrict_section; sections
    # are read off atom assignments: no make_section and no cover test there
    leq_calls = []
    made_inside = []
    restricting = []
    restricted = []
    listing = []
    inside_sections = []
    leq = Basis.leq
    make = sheaves.make_section
    restrict = sheaves.restrict_section
    sections = ConstantPresheaf.sections

    def counted_sections(self, a):
        listing.append(a)
        try:
            return sections(self, a)
        finally:
            listing.pop()

    def counted_cover(cover):
        def counted(self, a, sieve):
            if listing:
                inside_sections.append(("cover", a))
            return cover(self, a, sieve)
        return counted

    # every topology inherits the one cover test, so one patch sees every call
    assert list(own_cover_topologies()) == []
    monkeypatch.setattr(Topology, "cover", counted_cover(Topology.cover))
    monkeypatch.setattr(ConstantPresheaf, "sections", counted_sections)

    def counted_leq(self, a, b):
        leq_calls.append((a, b))
        return leq(self, a, b)

    def counted_make(space, root, assignments):
        if restricting:
            made_inside.append(root)
        if listing:
            inside_sections.append(("make_section", root))
        return make(space, root, assignments)

    def counted_restrict(space, section, b):
        restricted.append(b)
        restricting.append(b)
        try:
            return restrict(space, section, b)
        finally:
            restricting.pop()

    monkeypatch.setattr(Basis, "leq", counted_leq)
    monkeypatch.setattr(sheaves, "make_section", counted_make)
    monkeypatch.setattr(sheaves, "restrict_section", counted_restrict)
    for _, space in _standard_spaces(3):
        # a fresh sheaf: a filled restriction cache would hide the calls
        presheaf = nat_sheaf(space, 2)
        elems = [a for a in space.basis.elements if presheaf.section_count(a) <= 16]
        assert sheaf_check(presheaf, elements=elems, sieve_cap=8).ok
        for other in derived_sheaves(space).values():
            for a in space.basis.elements:
                if other.section_count(a) <= 64:
                    assert other.sections(a)
    assert restricted
    assert (len(leq_calls), len(made_inside)) == (0, 0)
    assert inside_sections == []


# (tree kind, branching, depth, prefix cap of the double's points or None)
_POSITIVE_SHAPES = [
    *(("cantor", 2, d, None) for d in range(9)),
    *(("baire", b, d, None) for b in range(1, 6) for d in range(9)
      if sum(b ** k for k in range(d + 1)) <= 400),
    *(("cantor", 2, d, k) for d in range(5) for k in range(3)),
    *(("baire", 3, d, k) for d in range(3) for k in range(2)),
]


@pytest.mark.parametrize("shape", _POSITIVE_SHAPES, ids=lambda s: "-".join(map(str, s)))
def test_tree_spaces_and_doubles_are_positive(shape):
    # require_positive skips these spaces: this is the lemma it relies on
    kind, branch, depth, prefix_cap = shape
    space = cantor_space(depth) if kind == "cantor" else baire_space(branch, depth)
    if prefix_cap is not None:
        space = build_double(space, eventually_constant_points(branch, prefix_cap))
    basis = space.basis
    assert [a for a in basis.elements
            if space.topology.cover(a, Sieve.empty(basis, a)).covered] == []


def test_require_positive_scans_only_spaces_from_outside(monkeypatch):
    space = cantor_space(2)
    scans = []
    empty = Sieve.empty
    monkeypatch.setattr(Sieve, "empty", staticmethod(lambda basis, a: scans.append(a) or empty(basis, a)))
    sheaves.require_positive(space)
    sheaves.require_positive(build_double(space, eventually_constant_points(2, 1)))
    assert scans == []
    # the same opens and covers, handed in as a plain space, are scanned
    sheaves.require_positive(FormalSpace(space.basis, space.topology, space.system))
    assert scans == list(space.basis.elements)


@functools.cache
def _differential_spaces():
    """Cantor, Baire(2) and Baire(3) up to depth 3 and doubles over them."""
    out = []
    for depth in range(1, 4):
        trees = (cantor_space(depth), baire_space(2, depth), baire_space(3, depth))
        out.extend(trees)
        out.extend(build_double(t, eventually_constant_points(t.branch, 1)) for t in trees)
    return tuple(out)


@functools.cache
def _differential_sheaves(index):
    space = _differential_spaces()[index]
    return (nat_sheaf(space, 2), *derived_sheaves(space).values())


@settings(max_examples=400)
@given(st.data())
def test_sections_match_make_section_on_every_assignment(data):
    index = data.draw(st.integers(0, len(_differential_spaces()) - 1))
    presheaf = data.draw(st.sampled_from(_differential_sheaves(index)))
    basis = presheaf.space.basis
    roots = [a for a in basis.elements if presheaf.section_count(a) <= SECTION_BUDGET]
    a = data.draw(st.sampled_from(roots))
    # a fresh presheaf, so the sections are built for this comparison
    fresh = ConstantPresheaf(presheaf.space, presheaf.values, presheaf.atoms, presheaf.label)
    assert fresh.sections(a) == sections_by_covers(presheaf, a)


@functools.cache
def _differential_families(index):
    """Each open with the covering system's families and sampled covering sieves on it."""
    space = _differential_spaces()[index]
    out = []
    for a in space.basis.elements:
        families = dict.fromkeys(space.system.families_at(a))
        for sieve in sieves_on(space.basis, a, cap=8):
            if space.topology.cover(a, sieve).covered:
                families.setdefault(sieve.generators)
        out.extend((a, fam) for fam in families)
    return tuple(out)


def _duplicated_values(space):
    """A broken presheaf: one value listed twice gives pairs of equal sections."""
    return ConstantPresheaf(space, (0, 1, 0), space_atoms(space), label="twice")


def _rigid(space):
    """A broken presheaf: only constant sections, which cannot glue mixed covers."""
    return ConstantPresheaf(space, (0, 1), lambda a: (a,), label="rigid")


class _Forgetful(ConstantPresheaf):
    """Every restriction is the zero section: all sections look alike."""

    def restrict(self, section, b):
        return NatSection(b, ((b, 0),))


def _minimal_atoms(basis):
    """The minimal opens below each open: atoms of a sort on any preorder."""
    return lambda a: tuple(w for w in basis.down(a)
                           if all(w in basis.below(u) for u in basis.below(w)))


def _assert_family_checks_agree(presheaf, a, fam):
    for max_failures in (1, 4):
        got = ([], [])
        want = ([], [])
        got_done = sheaves._check_family(presheaf, a, fam, *got, max_failures)
        want_done = check_family_by_product(presheaf, a, fam, *want, max_failures)
        assert (got_done, got) == (want_done, want)


def _within_the_product_budget(presheaf, families):
    # the product filter's cost is the product of the members' section counts
    return [(a, fam) for a, fam in families
            if presheaf.section_count(a) <= SECTION_BUDGET
            and math.prod(map(presheaf.section_count, fam)) <= 4 * SECTION_BUDGET]


@settings(max_examples=400)
@given(st.data())
def test_family_check_matches_the_product_filter(data):
    index = data.draw(st.integers(0, len(_differential_spaces()) - 1))
    space = _differential_spaces()[index]
    kind = data.draw(st.sampled_from(("standard", "twice", "rigid", "misrestricted", "forgetful")))
    if kind == "standard":
        presheaf = data.draw(st.sampled_from(_differential_sheaves(index)))
    elif kind == "twice":
        presheaf = _duplicated_values(space)
    elif kind == "rigid":
        presheaf = _rigid(space)
    elif kind == "misrestricted":
        presheaf = _MisRestricted(space, (0, 1), space_atoms(space))
    else:
        presheaf = _Forgetful(space, (0, 1), space_atoms(space))
    candidates = _within_the_product_budget(presheaf, _differential_families(index))
    a, fam = data.draw(st.sampled_from(candidates))
    _assert_family_checks_agree(presheaf, a, fam)


@settings(max_examples=400)
@given(st.integers(0, 2**32 - 1), st.integers(1, 7), st.booleans(), st.data())
def test_family_check_matches_the_product_filter_on_random_preorders(seed, size, forget, data):
    # on tree spaces and doubles no member of a family meets two earlier
    # ones, nor meets one in part; random covering systems have both
    rng = random.Random(seed)
    basis = random_preorder(rng, size)
    system = random_covering_system(rng, basis)
    space = FormalSpace(basis, GeneratedTopology(system), system)
    presheaf = (_Forgetful if forget else ConstantPresheaf)(space, (0, 1), _minimal_atoms(basis))
    families = [(a, fam) for a in basis.elements for fam in system.families_at(a)]
    families += [(a, sieve.generators) for a in basis.elements
                 for sieve in sieves_on(basis, a, cap=8)
                 if space.topology.cover(a, sieve).covered]
    candidates = _within_the_product_budget(presheaf, families)
    if candidates:
        a, fam = data.draw(st.sampled_from(candidates))
        _assert_family_checks_agree(presheaf, a, fam)


def test_family_check_differential_reaches_both_failure_kinds():
    # the broken presheaves above fail in both ways, several times per family
    space = cantor_space(2)
    fam = ((0,), (1,))
    separation, glue = [], []
    sheaves._check_family(_duplicated_values(space), (), fam, separation, glue, 4)
    assert len(separation) > 1 and len(glue) == 4
    separation, glue = [], []
    sheaves._check_family(_rigid(space), (), fam, separation, glue, 4)
    assert separation == [] and len(glue) == 2


@settings(max_examples=400)
@given(st.integers(0, 2**32 - 1), st.integers(1, 7), st.data())
def test_one_walk_canonicalizer_matches_the_per_value_walk(seed, size, data):
    # labels drawn on the opens below a root; the zone of v holds the opens
    # whose whole down-set is labelled v: down-closed and pairwise disjoint,
    # and equivalent opens, with equal down-sets, share a zone
    basis = random_preorder(random.Random(seed), size)
    root = data.draw(st.sampled_from(basis.elements))
    fragment = basis.down(root)
    labels = dict(zip(fragment, data.draw(st.lists(
        st.sampled_from((0, 1, 2, None)), min_size=len(fragment), max_size=len(fragment)))))
    zones: dict = {}
    for w in fragment:
        here = {labels[u] for u in basis.below(w)}
        if len(here) == 1 and None not in here:
            zones.setdefault(here.pop(), set()).add(w)
    order = data.draw(st.permutations(list(zones)))
    zones = {value: frozenset(zones[value]) for value in order}
    masks = {value: basis.bits.mask(zone) for value, zone in zones.items()}
    assert sheaves._from_zones(basis.bits, root, masks) == from_zones_per_value(basis, root, zones)
