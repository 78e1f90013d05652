"""Forcing semantics: clause behaviour, atom laws, and CC-space machinery."""
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import forcing_oracle
from cover_oracle import own_cover_topologies
from order_oracle import generate_topology
from point_oracle import double_point_family, family_through, scan_observation, scan_through
from sheafbench import rules
from sheafbench.double import DOpen, DoubleSpace, build_double
from sheafbench.forcing import (
    Amalgamation,
    FuelExhausted,
    ModelError,
    NoRefinementFound,
    NotCovering,
    NotDisjoint,
    _Run,
    _force,
    _generic_prefix_open,
    cc_refine,
    choice_amalgamation,
    classical_truth,
    eq_atom,
    eval_term,
    exists_witness_sieve,
    force,
    generic_value,
    point_observation,
    prefix_atom,
    pure_value,
    rel_atom,
    section_members,
    standard_model,
    table_value,
    with_universe_value,
)
from sheafbench.formulas import And, Exists, Implies, Lit, Name, Or, Sum, parse_formula
from sheafbench.points import Point, eventually_constant_points
from sheafbench.randomgen import random_formula
from sheafbench.sheaves import NatSection, nat_sheaf, space_atoms
from sheafbench.site import (
    Basis,
    CoveringSystem,
    NotACover,
    Sieve,
)
from sheafbench.spaces import Bar, baire_space, bar_from_generators, cantor_space


def _double(depth=2, max_prefix=1):
    inner = cantor_space(depth)
    return build_double(inner, eventually_constant_points(2, max_prefix))


def _bar_model(dbl, *gens, **kwargs):
    inner = dbl.inner
    bar = bar_from_generators(inner, gens)
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

    forced, pairs = exists_witness_sieve(model, dbl.d(()), phi, phi)
    assert forced
    got = dict(pairs)
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
    streams = standard_model(dbl).points_through(dbl.d(()))
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
    streams = standard_model(dbl).points_through(dbl.d(()))
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
        assert set(phi.free) <= {"pi"}
        assert parse_formula(str(phi)) == phi


def _depth3_double_model():
    """Depth-3 Cantor double over the points with prefix at most 1 (19 basic
    opens), with the level-2 bar behind ``InBar``."""
    inner = cantor_space(3)
    dbl = build_double(inner, eventually_constant_points(2, 1))
    bar = bar_from_generators(inner, [u for u in inner.basis.elements if len(u) == 2])
    return dbl, standard_model(dbl, bar=bar, n_max=8)


_DEPTH3 = _depth3_double_model()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_singleton_forcing_is_truth_and_formulas_round_trip(seed):
    dbl, model = _DEPTH3
    rng = random.Random(seed)
    phi = random_formula(rng, rng.randint(0, 3))
    again = parse_formula(str(phi))
    assert again == phi and hash(again) == hash(phi) and again.free == phi.free
    for q in dbl.points:
        assert force(model, dbl.singleton(q), phi) == classical_truth(model, q, phi), phi


def _stream(branch, max_entry=None):
    entry = st.integers(0, branch - 1 if max_entry is None else max_entry)
    return st.builds(Point, st.lists(entry, max_size=4).map(tuple), entry)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from([2, 3]), st.integers(0, 3), st.integers(0, 2))
def test_model_point_index_matches_the_anchored_and_lifted_scan(data, branch, depth, cap):
    inner = cantor_space(depth) if branch == 2 else baire_space(3, depth)
    double = build_double(inner, data.draw(st.lists(_stream(branch), max_size=5)))
    streams = eventually_constant_points(branch, cap)
    model = standard_model(double, prefix_cap=cap)
    # order included: it decides whether Rel on a partial table fails or raises
    family = double_point_family(double, streams)
    for stage in double.basis.elements:
        assert model.points_through(stage) == family_through(family, stage)
    assert set(model.through) <= set(double.basis.elements)
    tree_model = standard_model(inner, prefix_cap=cap)
    scanned = scan_through(inner.basis.elements, streams)
    assert {u: tree_model.points_through(u) for u in inner.basis.elements} == scanned
    # streams stepping outside the target tree are seen up to the first step out
    for point in data.draw(st.lists(_stream(branch, max_entry=4), max_size=4)):
        for target in (2, branch):
            assert point_observation(model, point, target) == scan_observation(
                point, target, depth)


def test_fuel_exhaustion_is_distinguished():
    dbl = _double()
    model = standard_model(dbl)
    phi = parse_formula("forall n:Nat. exists m:Nat. Leq(n, m)")
    with pytest.raises(FuelExhausted):
        force(model, dbl.d(()), phi, fuel=5)
    assert force(model, dbl.d(()), phi, fuel=100_000)


def _differential_models() -> tuple:
    """(model, root) for the force-many double, a Baire(3) depth-2 double
    and the plain Cantor(3) tree, each with a bar behind ``InBar``."""
    baire = baire_space(3, 2)
    baire_double = build_double(baire, eventually_constant_points(3, 1))
    cantor = cantor_space(3)
    return (
        (_DEPTH3[1], _DEPTH3[0].d(())),
        (standard_model(baire_double, bar=bar_from_generators(baire, [(0,), (1, 2), (2,)]),
                        n_max=4, prefix_cap=1), baire_double.d(())),
        (standard_model(cantor, bar=bar_from_generators(cantor, [(1,), (0, 0)]), n_max=4),
         ()),
    )


_DIFFERENTIAL = _differential_models()
# pieces the models cannot interpret: unknown atom and name, sort and arity
# mismatches, a Rel with no function table, and a bar test on a Nat that
# only the stages where its guard holds reach
_ILL_FORMED = ("Foo(pi)", "Leq(x, 1)", "Eq(pi, 1)", "App(pi, 0)", "Prefix(pi, 1)",
               "Rel(pi, pi)", "exists n:Nat. Leq(n, 2) & InBar(n)")


def _outcome(call):
    try:
        return call()
    except ModelError:
        return ModelError


def _subformulas(node):
    yield node
    for child in (getattr(node, name, None) for name in ("left", "right", "body")):
        if child is not None:
            yield from _subformulas(child)


# App and Prefix on the generic under exists and or: the atom forced from
# its saturated zone, and the one read off the down-set of D(u)
_GENERIC_CLAUSES = ("exists n:Nat. App(pi, n, 1)", "App(pi, 1, 0) | App(pi, 2, 1)",
                    "exists u:FinSeq. Prefix(pi, u) & InBar(u)",
                    "exists u:FinSeq. InBar(u) & (Prefix(pi, u) | App(pi, 0, 1))",
                    rules.FAN_PREMISE)
# closed premises whose witness sieve a rule reads from the premise's own
# run: the fan and bar premises (forced over the level-2 bar of the
# force-many double), a forall whose body is always forced, and an exists
_PREMISES = (rules.FAN_PREMISE, rules.BAR_PREMISE, "forall a:Seq2. exists n:Nat. App(a, 0, n)",
             "exists n:Nat. App(pi, 1, n)")


def _witness_instance(model, premise) -> tuple:
    """The existential whose sieve a premise yields, and its environment: the
    premise itself, or a forall's body at the last value of its universe
    (the generic, for a stream sort)."""
    if isinstance(premise, Exists):
        return premise, {}
    return premise.body, {premise.var: (premise.sort, model.universe(premise.sort)[-1])}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(range(len(_DIFFERENTIAL))), st.integers(0, 2**32 - 1),
       st.none() | st.sampled_from(_ILL_FORMED), st.sampled_from((And, Or, Implies)),
       st.booleans(), st.none() | st.sampled_from(_GENERIC_CLAUSES),
       st.sampled_from(_PREMISES))
def test_set_at_a_time_forcing_matches_the_per_stage_oracle(which, seed, bad, join, first,
                                                            clause, premise):
    model, root = _DIFFERENTIAL[which]
    rng = random.Random(seed)
    phi = random_formula(rng, rng.randint(0, 3), n_max=rng.choice((2, 8)))
    if clause is not None:
        phi = join(parse_formula(clause), phi)
    if bad is not None:
        pieces = (parse_formula(bad), phi) if first else (phi, parse_formula(bad))
        phi = join(*pieces)
    for stage in model.space.basis.elements:
        run = _Run(model, None)
        got = _outcome(lambda: (_force(run, stage, phi, {}), run.steps))
        assert got == _outcome(lambda: forcing_oracle.force_and_count(model, stage, phi)), (phi, stage)
        if got is ModelError:
            continue
        verdict, steps = got
        with pytest.raises(FuelExhausted) as err:
            force(model, stage, phi, fuel=steps - 1)
        assert err.value.steps == steps
        assert force(model, stage, phi, fuel=steps) == verdict
    # each closed existential as its own premise, then a rule premise; the
    # sieve read off the premise's run is the oracle's from a fresh run, and
    # reading it takes no fuel past the premise's own steps
    closed = [node for node in _subformulas(phi)
              if isinstance(node, Exists) and set(node.free) <= set(model.constants)]
    premise = parse_formula(premise)
    for formula, (node, env) in [(node, (node, {})) for node in closed] + [
            (premise, _witness_instance(model, premise))]:
        expected = _outcome(lambda: forcing_oracle.force_and_count(model, root, formula))
        if expected is ModelError:
            assert _outcome(lambda: exists_witness_sieve(model, root, formula, node, env)) \
                is ModelError
            continue
        verdict, steps = expected
        pairs = forcing_oracle.exists_witness_sieve(model, root, node, env) if verdict else ()
        assert exists_witness_sieve(model, root, formula, node, env, fuel=steps) == (
            verdict, pairs), formula


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(range(len(_DIFFERENTIAL))), st.integers(0, 2**32 - 1),
       st.sampled_from(_GENERIC_CLAUSES), st.sampled_from((And, Or, Implies)))
def test_disjunction_and_existence_zones_are_downward_closed(which, seed, clause, join):
    # forcing saturates these zones once over the basis, which answers
    # every stage only for a downward closed zone
    model, _ = _DIFFERENTIAL[which]
    basis = model.space.basis
    rng = random.Random(seed)
    phi = join(parse_formula(clause), random_formula(rng, rng.randint(1, 3)))
    run = _Run(model, None)
    for stage in basis.elements:
        # an ill-sorted formula raises part way; the zones built so far stay
        _outcome(lambda: _force(run, stage, phi, {}))
    zones = [set(zone) for (node, _), zone in run.zones.items() if isinstance(node, (Or, Exists))]
    assert zones
    for zone in zones:
        for v in zone:
            assert basis.below(v) <= zone, (phi, v)


def test_the_generic_has_prefix_u_exactly_below_the_open_of_u():
    for model, _ in _DIFFERENTIAL:
        space = model.space
        generic = model.constants["pi"][1]
        for u in model.universe("FinSeq"):
            top = DOpen(u) if isinstance(space, DoubleSpace) else u
            stages = {x for x in space.basis.elements
                      if u in section_members(model, generic, x)}
            assert stages == space.basis.below(top), u
            assert _generic_prefix_open(model, generic, u) == top


def _premise_models():
    """(model, root, premise) of the fan, bar and continuity rules."""
    fan_bar = Bar(cantor_space(3), lambda u: 1 in u or len(u) >= 2, monotone=True)
    bar = Bar(baire_space(2, 3), lambda u: True, monotone=True, inductive=True)
    shift = {q: _shift(q) for q in eventually_constant_points(2, 3)}
    made = ((rules._double_model(fan_bar.space, bar=fan_bar), rules.FAN_PREMISE),
            (rules._double_model(bar.space, bar=bar), rules.BAR_PREMISE),
            (rules._table_model(baire_space(2, 2), shift), rules.UNIQUE_IMAGE))
    return [(model, double.d(()), parse_formula(text)) for (double, model), text in made]


def test_forcing_builds_no_sieve_and_asks_no_cover_test(monkeypatch):
    # every cover clause reads one saturation of its zone
    asked = []
    init = Sieve.__init__

    def counted_init(self, *args, **kwargs):
        asked.append("sieve")
        init(self, *args, **kwargs)

    def counted_cover(cover):
        def counted(self, a, sieve):
            asked.append(("cover", a))
            return cover(self, a, sieve)
        return counted

    premises = _premise_models()
    monkeypatch.setattr(Sieve, "__init__", counted_init)
    for topology in own_cover_topologies():
        monkeypatch.setattr(topology, "cover", counted_cover(topology.cover))
    for model, root, premise in premises:
        assert force(model, root, premise)
    assert asked == []


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


@lru_cache(maxsize=None)
def _refine_space(kind):
    return {"cantor": cantor_space, "baire": lambda d: baire_space(3, d), "double": _double}[kind](3)


@given(st.data(), st.sampled_from(("cantor", "baire", "double")))
def test_cc_refine_output_is_disjoint_and_covering(data, kind):
    # a random covering sieve: random opens below a, then the finest opens
    # below a that they leave out, which cover what is left
    space = _refine_space(kind)
    basis = space.basis
    a = data.draw(st.sampled_from(basis.elements))
    picked = data.draw(st.sets(st.sampled_from(basis.down(a)), max_size=4))
    members = Sieve.from_generators(basis, a, picked).members
    sieve = Sieve.from_generators(
        basis, a, picked | {t for t in space_atoms(space)(a) if t not in members})
    pieces = cc_refine(space, a, sieve)
    assert all(sieve.contains(x) for x in pieces)
    assert all(basis.disjoint(x, y) for i, x in enumerate(pieces) for y in pieces[i + 1:])
    assert space.topology.cover(a, Sieve.from_generators(basis, a, pieces)).covered


def test_cc_refine_generic_search_and_no_refinement():
    below = {"top": {"top", "a", "b", "c"}, "a": {"a", "c"}, "b": {"b", "c"}, "c": {"c"}}
    basis = Basis(below)
    trivial = {"a": (("a",),), "b": (("b",),), "c": (("c",),)}
    system = CoveringSystem(basis, {"top": (("a", "b"),), **trivial})
    from sheafbench.site import FormalSpace

    space = FormalSpace(basis, generate_topology(system), system)
    sieve = Sieve.from_generators(basis, "top", ["a", "b"])
    with pytest.raises(NoRefinementFound):
        cc_refine(space, "top", sieve)

    disjoint = {"top": {"top"}, "a": {"a"}, "b": {"b"}, "c": {"c", "a", "b"}}
    basis2 = Basis(disjoint)
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
    assert {n for _, n in got.section.pieces} == {5, 7}

    single = choice_amalgamation(sheaf, (), {(): 3})
    assert single.section == NatSection((), (((), 3),))


def test_choice_amalgamation_rejects_bad_families():
    space = cantor_space(2)
    sheaf = nat_sheaf(space, 8)
    with pytest.raises(NotDisjoint):
        choice_amalgamation(sheaf, (), {(0,): 1, (0, 0): 2, (1,): 3})
    with pytest.raises(NotCovering):
        choice_amalgamation(sheaf, (), {(0,): 1})
