"""Forcing semantics: clause behaviour, atom laws, and CC-space machinery."""
import random

import pytest

from sheafbench.double import build_double
from sheafbench.forcing import (
    Amalgamation,
    FuelExhausted,
    ModelError,
    NoRefinementFound,
    NotCovering,
    NotDisjoint,
    cc_refine,
    choice_amalgamation,
    classical_truth,
    eq_atom,
    eval_term,
    exists_witness_sieve,
    force,
    generic_value,
    prefix_atom,
    pure_value,
    rel_atom,
    standard_model,
    table_value,
    with_universe_value,
)
from sheafbench.formulas import Lit, Name, Sum, free_names, parse_formula
from sheafbench.points import Point, eventually_constant_points
from sheafbench.randomgen import random_formula
from sheafbench.sheaves import nat_sheaf, pure_section
from sheafbench.site import (
    Basis,
    CoveringSystem,
    NotACover,
    Sieve,
    generate_topology,
    sieves_on,
)
from sheafbench.spaces import baire_space, bar_from_generators, cantor_space


def _double(depth=2, max_prefix=1):
    inner = cantor_space(depth)
    return build_double(inner, eventually_constant_points(2, max_prefix))


def _bar_model(dbl, *gens, **kwargs):
    inner = dbl.inner
    bar = bar_from_generators(inner, gens, monotone=True)
    return standard_model(dbl, bar=bar, **kwargs)


def _shift(point: Point) -> Point:
    return Point(point.prefix[1:], point.tail)


def test_eval_term_arithmetic_and_constants():
    model = standard_model(cantor_space(2))
    assert eval_term(model, {}, Lit(3)) == ("Nat", 3)
    assert eval_term(model, {"n": ("Nat", 4)}, Sum(Name("n"), Lit(1))) == ("Nat", 5)
    sort, value = eval_term(model, {}, Name("pi"))
    assert sort == "Seq2" and value.kind == "generic"
    with pytest.raises(ModelError):
        eval_term(model, {}, Name("mystery"))


def test_falsum_never_forced_anywhere():
    phi = parse_formula("false")
    space = cantor_space(2)
    model = standard_model(space)
    assert all(not force(model, u, phi) for u in space.basis.elements)
    dbl = _double()
    dmodel = standard_model(dbl)
    assert all(not force(dmodel, x, phi) for x in dbl.basis.elements)


def test_singleton_forces_decidable_arithmetic():
    dbl = _double()
    model = standard_model(dbl)
    phi = parse_formula("exists n:Nat. Eq(n+0, 2)")
    q = dbl.points[0]
    assert force(model, dbl.singleton(q), phi)
    assert classical_truth(model, q, phi)
    assert force(model, dbl.d(()), phi)


def test_existential_prefix_in_bar_forced_at_root():
    dbl = _double()
    model = _bar_model(dbl, (0,), (1,))
    phi = parse_formula("exists u:FinSeq. Prefix(pi,u) & InBar(u)")
    assert force(model, dbl.d(()), phi)

    inner = phi
    witnesses = exists_witness_sieve(
        model, dbl.d(()), inner.var, inner.sort, inner.body
    )
    got = dict(witnesses)
    assert dbl.d(()) not in got
    for v in ((0,), (1,), (0, 0), (1, 1)):
        assert got[dbl.d(v)] == (v[0],)
    for q in dbl.points:
        assert dbl.singleton(q) in got


def test_generic_prefix_atom_reads_decided_prefixes():
    dbl = _double()
    model = standard_model(dbl)
    generic = ("Seq2", generic_value(2))
    arg = lambda u: (generic, ("FinSeq", u))
    assert prefix_atom(model, dbl.d((0, 1)), arg((0, 1)))
    assert prefix_atom(model, dbl.d((0, 1)), arg((0,)))
    assert not prefix_atom(model, dbl.d((0,)), arg((0, 1)))
    q = Point((0, 1), 1)
    assert prefix_atom(model, dbl.singleton(q), arg((0, 1)))


def test_generic_app_is_local_across_branches():
    dbl = _double()
    model = standard_model(dbl)
    at_zero = parse_formula("App(pi, 0, 0)")
    either = parse_formula("App(pi, 0, 0) | App(pi, 0, 1)")
    assert force(model, dbl.d((0,)), at_zero)
    assert not force(model, dbl.d(()), at_zero)
    assert force(model, dbl.d(()), either)


def test_generic_equality_holds_exactly_on_decided_leaves():
    dbl = _double()
    model = standard_model(dbl)
    c0 = ("Seq2", pure_value(Point((), 0), 2))
    generic = ("Seq2", generic_value(2))
    assert eq_atom(model, dbl.d((0, 0)), (generic, c0))
    assert not eq_atom(model, dbl.d((0,)), (generic, c0))
    assert not eq_atom(model, dbl.d((1, 1)), (generic, c0))
    assert eq_atom(model, dbl.singleton(Point((), 0)), (generic, c0))


def test_rel_atom_with_table_candidate_and_uniqueness():
    dbl = _double()
    streams = [q for kind, q, _ in standard_model(dbl).point_family if kind == "lifted"]
    table = {q: _shift(q) for q in streams}
    model = standard_model(dbl, rel_table=table)
    candidate = table_value(table, 2, label="shift")

    rel = lambda value: rel_atom(
        model, dbl.d(()), (("Seq2", generic_value(2)), ("Seq2", value))
    )
    assert rel(candidate)
    assert not rel(pure_value(Point((), 0), 2))

    model = with_universe_value(model, "Seq2", candidate)
    unique = parse_formula(
        "exists b:Seq2. Rel(pi,b) & (forall c:Seq2. Rel(pi,c) -> Eq(b,c))"
    )
    assert force(model, dbl.d(()), unique)


def test_identity_table_is_observationally_generic():
    dbl = _double()
    streams = [q for kind, q, _ in standard_model(dbl).point_family if kind == "lifted"]
    model = standard_model(dbl, rel_table={q: q for q in streams})
    ident = table_value(model.rel_table, 2, label="id")
    args = (("Seq2", ident), ("Seq2", generic_value(2)))
    assert eq_atom(model, dbl.d(()), args)


def test_monotone_and_local_on_random_formulas():
    dbl = _double()
    model = _bar_model(dbl, (0,), (1, 1))
    rng = random.Random(7)
    basis = dbl.basis
    for _ in range(40):
        phi = random_formula(rng, rng.randint(1, 3))
        holds = {x for x in basis.elements if force(model, x, phi)}
        for p in holds:
            assert set(basis.down(p)) <= holds, (phi, p)
        for p in basis.elements:
            sieve = Sieve.from_generators(
                basis, p, [v for v in basis.down(p) if v in holds]
            )
            if dbl.topology.cover(p, sieve).covered:
                assert p in holds, (phi, p)


def test_forcing_at_singletons_is_classical_truth():
    dbl = _double()
    model = _bar_model(dbl, (0,), (1, 1))
    rng = random.Random(11)
    for _ in range(60):
        phi = random_formula(rng, rng.randint(0, 3))
        for q in dbl.points:
            assert force(model, dbl.singleton(q), phi) == classical_truth(
                model, q, phi
            ), phi


def test_random_formulas_are_closed_and_reparseable():
    rng = random.Random(3)
    for _ in range(60):
        phi = random_formula(rng, rng.randint(0, 4))
        assert free_names(phi) <= {"pi"}
        assert parse_formula(str(phi)) == phi


def test_fuel_exhaustion_is_distinguished():
    dbl = _double()
    model = standard_model(dbl)
    phi = parse_formula("forall n:Nat. exists m:Nat. Leq(n, m)")
    with pytest.raises(FuelExhausted):
        force(model, dbl.d(()), phi, fuel=5)
    assert force(model, dbl.d(()), phi, fuel=100_000)


def test_cc_refine_keeps_given_disjoint_pieces():
    space = cantor_space(2)
    sieve = Sieve.from_generators(space.basis, (), [(0,), (1, 0), (1, 1)])
    assert cc_refine(space, (), sieve) == ((0,), (1, 0), (1, 1))


def test_cc_refine_trivial_and_failure():
    space = cantor_space(2)
    assert cc_refine(space, (1,), Sieve.maximal(space.basis, (1,))) == ((1,),)
    with pytest.raises(NotACover) as err:
        cc_refine(space, (), Sieve.from_generators(space.basis, (), [(0,)]))
    assert err.value.args == ("Sieve(root=(), generators=[(0,)]) does not cover ()",)


def test_cc_refine_descends_baire():
    space = baire_space(3, 2)
    members = [(0,), (1, 0), (1, 1), (1, 2), (2,)]
    sieve = Sieve.from_generators(space.basis, (), members)
    assert cc_refine(space, (), sieve) == tuple(members)


def test_cc_refine_on_doubles_lifts_inner_refinement():
    dbl = _double()
    basis = dbl.basis
    gens = [dbl.d((0,)), dbl.d((1, 0)), dbl.d((1, 1))]
    sieve = Sieve.from_generators(basis, dbl.d(()), gens)
    assert cc_refine(dbl, dbl.d(()), sieve) == tuple(gens)
    q = dbl.points[0]
    anchored = dbl.singleton(q)
    assert cc_refine(dbl, anchored, Sieve.maximal(basis, anchored)) == (anchored,)


def test_cc_refine_generic_search_and_no_refinement():
    labels = ["top", "a", "b", "c"]
    below = {"top": {"top", "a", "b", "c"}, "a": {"a", "c"}, "b": {"b", "c"}, "c": {"c"}}
    basis = Basis(labels, lambda x, y: x in below[y])
    trivial = {"a": (("a",),), "b": (("b",),), "c": (("c",),)}
    system = CoveringSystem(basis, {"top": (("a", "b"),), **trivial})
    from sheafbench.site import FormalSpace

    space = FormalSpace(basis, generate_topology(system), system)
    sieve = Sieve.from_generators(basis, "top", ["a", "b"])
    with pytest.raises(NoRefinementFound):
        cc_refine(space, "top", sieve)

    disjoint = {"top": {"top"}, "a": {"a"}, "b": {"b"}, "c": {"c", "a", "b"}}
    basis2 = Basis(labels, lambda x, y: x in disjoint[y])
    system2 = CoveringSystem(basis2, {"c": (("a", "b"),), "a": (("a",),), "b": (("b",),)})
    space2 = FormalSpace(basis2, generate_topology(system2), system2)
    sieve2 = Sieve.from_generators(basis2, "c", ["a", "b"])
    assert cc_refine(space2, "c", sieve2) == ("a", "b")


def test_choice_amalgamation_glues_and_reports_unique():
    space = cantor_space(2)
    sheaf = nat_sheaf(space, 8)
    got = choice_amalgamation(sheaf, (), {(0,): 5, (1,): 7})
    assert isinstance(got, Amalgamation)
    assert got.unique
    assert got.refinement == ((0,), (1,))
    assert set(got.section.values()) == {5, 7}

    single = choice_amalgamation(sheaf, (), {(): 3})
    assert single.section == pure_section(space, (), 3)


def test_choice_amalgamation_rejects_bad_families():
    space = cantor_space(2)
    sheaf = nat_sheaf(space, 8)
    with pytest.raises(NotDisjoint):
        choice_amalgamation(sheaf, (), {(0,): 1, (0, 0): 2, (1,): 3})
    with pytest.raises(NotCovering):
        choice_amalgamation(sheaf, (), {(0,): 1})
