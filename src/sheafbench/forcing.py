"""Cover semantics for first-order formulas over a formal space.

Truth at a basic open follows the usual sheaf-model clauses: conjunction and
implication are pointwise over the downset, disjunction and existence hold
where the opens carrying a local verdict cover, and universal quantification
ranges over every smaller open.  Nat and FinSeq quantifiers draw witnesses
from finite universes of pure values; by pure density this loses no
generality on the spaces built here.  Stream-sort quantifiers range over
section values: the graphs of continuous maps into the truncated tree.
Three kinds are enumerated — constant maps given by a single stream, the
generic stream ``pi`` (the tree part of a double names its own prefix), and
maps induced by a function table on enumerated points.

Every section value is read through its member set at a stage: the basic
opens of the target tree that the map is known to land in.  Atoms look only
at member sets, which keeps them monotone under restriction and local for
covers, the two properties the connective clauses rely on.  A stream is
seen through its prefix chain in the target tree, so a pure value's members
and the generic value's at a stage are closed-form chains; a table value's
are the chains of its images along the points through the stage, which the
model reads from one point index (:func:`points.incidence`) built with it.

Forcing runs a set of stages at a time: one call answers, for a subformula
under an environment, which stages of a given set force it, and the run's
memo keeps per (subformula, env) the stages evaluated so far and those
forced, so each call evaluates only stages it has not seen.  A first ask
stores the demanded set itself as its entry, shared with the caller; only
a later ask about unseen stages builds unions.  A conjunction
asks its right side only where its left holds; a disjunction's zone asks
its right side only where its left fails, an implication's only where its
left holds; a quantifier tries each universe value only at the elements
still without a witness (or counterexample).  Every other clause, atoms
included, answers with one set per (subformula, env): every basis element
forcing it, built in one pass over the basis (:func:`_atom_zone` for an
atom), with which a demanded set is intersected.

The cover clauses (falsum, disjunction, existence and ``App``) each take
one saturation per zone.  Forcing is monotone, so a disjunction's or
existential's zone, the elements where a local verdict holds, is downward
closed, and so is the set where a stream is seen to take a value, since
member sets only grow going down.  For a downward closed zone the sieve
``zone & below(a)`` covers ``a`` exactly when ``a`` lies in the zone's
inductive closure under the covering families, which
:meth:`Topology.covered` computes once for every stage.

A run's step count is the number of distinct (subformula, stage, env)
triples demanded this way; saturating a zone ticks none.  Which triples a
verdict demands depends only on the verdicts of the triples that demand
them, not on the order they are evaluated in, so the count, and with it
fuel, is the one a stage-at-a-time evaluation would reach.

A rule reads its numerical content off a witness zone, the first witness
of an existential at each element, in the run that forced its premise
(:func:`exists_witness_sieve`): forcing the premise at the root built that
zone already, so the premise is forced once and the read costs no step.
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Mapping

from .site import FormalSpace, NotACover, Sieve, element_key
from .spaces import Bar, TruncatedSpace, all_sequences
from .points import Point, eventually_constant_points, incidence, prefix_chain
from .double import DOpen, DoubleSpace, SingletonOpen
from .sheaves import ConstantPresheaf, NatSection, make_section, value_at
from . import formulas as F


class ModelError(ValueError):
    """The formula refers to something the model does not provide."""


class FuelExhausted(RuntimeError):
    def __init__(self, steps: int):
        super().__init__(f"forcing ran out of fuel after {steps} steps")
        self.steps = steps


STREAM_SORTS = ("Seq2", "SeqN")


@dataclass(frozen=True)
class SectionValue:
    """A stream-sort value: the graph of a continuous map into a tree.

    kind "pure" is the constant map at one stream, "generic" is the stage
    itself read as an approximation of a stream (the projection out of a
    double), and "table" is the map induced pointwise by a function table
    on enumerated streams.
    """

    kind: str
    branch: int
    point: Point | None = None
    table: tuple = ()
    label: str = ""

    def __post_init__(self):
        if self.kind not in ("pure", "generic", "table"):
            raise ValueError(f"unknown section value kind {self.kind!r}")
        if self.kind == "pure" and self.point is None:
            raise ValueError("a pure section value needs a stream")
        # memo keys hash the value on every lookup: compute the field
        # tuple's hash once (a table's walks every pair)
        object.__setattr__(self, "_hash", hash(
            (self.kind, self.branch, self.point, self.table, self.label)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def sort_key(self):
        rank = {"pure": 0, "generic": 1, "table": 2}[self.kind]
        tail = self.point.sort_key if self.point is not None else (self.label,)
        return (rank, self.branch) + tuple(tail)

    def __repr__(self):
        if self.kind == "pure":
            return f"SectionValue({self.point!r})"
        if self.kind == "generic":
            return f"SectionValue(generic/{self.branch})"
        return f"SectionValue(table {self.label or len(self.table)})"


def pure_value(point: Point, branch: int) -> SectionValue:
    return SectionValue(kind="pure", branch=branch, point=point)


def generic_value(branch: int) -> SectionValue:
    return SectionValue(kind="generic", branch=branch)


def table_value(table: Mapping, branch: int, label: str = "") -> SectionValue:
    pairs = tuple(sorted(table.items(), key=lambda kv: kv[0].sort_key))
    return SectionValue(kind="table", branch=branch, table=pairs, label=label)


@dataclass(frozen=True)
class ForcingModel:
    space: FormalSpace
    universes: Mapping  # sort -> tuple of values
    constants: Mapping  # name -> (sort, value)
    bar: Bar | None = None
    rel_table: Mapping | None = None  # Point -> Point
    through: Mapping = field(default_factory=dict)  # stage -> points through it
    depth: int = 0
    _members: dict = field(default_factory=dict, compare=False, repr=False)

    def universe(self, sort: str) -> tuple:
        got = self.universes.get(sort)
        if got is None:
            raise ModelError(f"no universe for sort {sort!r}")
        return got

    def points_through(self, stage) -> tuple:
        return self.through.get(stage, ())

    @cached_property
    def index_points(self) -> tuple:
        """Every point through some stage, once, in the order ``through`` lists them."""
        return tuple(dict.fromkeys(q for through in self.through.values() for q in through))


def point_observation(model: ForcingModel, point: Point, branch: int) -> frozenset:
    """Basic opens of the target tree the stream is seen to pass through."""
    key = ("obs", point, branch)
    got = model._members.get(key)
    if got is None:
        got = frozenset(prefix_chain(point.prefix_of(model.depth), branch))
        model._members[key] = got
    return got


def _table_image(value: SectionValue, point: Point) -> Point:
    for source, image in value.table:
        if source == point:
            return image
    raise ModelError(f"the function table has no value at {point}")


def observe(model: ForcingModel, value: SectionValue, point: Point) -> Point:
    """The stream a section value looks like from one enumerated point."""
    if value.kind == "pure":
        return value.point
    if value.kind == "generic":
        return point
    return _table_image(value, point)


def section_members(model: ForcingModel, value: SectionValue, stage) -> frozenset:
    """Target opens the section is known to land in at this stage."""
    if value.kind == "pure":
        return point_observation(model, value.point, value.branch)
    key = (value, stage)
    got = model._members.get(key)
    if got is not None:
        return got
    if value.kind == "generic":
        if isinstance(stage, SingletonOpen):
            got = point_observation(model, stage.point, value.branch)
        else:
            seq = stage.seq if isinstance(stage, DOpen) else stage
            got = frozenset(prefix_chain(seq, value.branch))
    else:
        seen = [point_observation(model, _table_image(value, q), value.branch)
                for q in model.points_through(stage)]
        # no point through the stage constrains the map: the whole tree
        got = (frozenset.intersection(*seen) if seen
               else frozenset(all_sequences(value.branch, model.depth)))
    model._members[key] = got
    return got


class _Run:
    def __init__(self, model: ForcingModel, fuel: int | None):
        self.model = model
        self.fuel = fuel
        self.steps = 0
        # (node, env slice) -> (stages evaluated so far, stages forced)
        self.memo: dict = {}
        self.zones: dict = {}
        # (node, env slice) -> every element forcing the node
        self.forced: dict = {}
        self.everywhere = frozenset(model.space.basis.elements)

    def tick(self, count: int):
        self.steps += count
        if self.fuel is not None and self.steps > self.fuel:
            raise FuelExhausted(self.fuel + 1)

    def env_key(self, node, env: dict) -> tuple:
        """Relevant slice of the environment as a fixed-order value tuple."""
        return tuple(map(env.get, node.free))


def eval_term(model: ForcingModel, env: Mapping, term):
    if isinstance(term, F.Lit):
        return ("Nat", term.value)
    if isinstance(term, F.Name):
        if term.ident in env:
            return env[term.ident]
        if term.ident in model.constants:
            return model.constants[term.ident]
        raise ModelError(f"unknown name {term.ident!r}")
    if isinstance(term, F.Sum):
        ls, lv = eval_term(model, env, term.left)
        rs, rv = eval_term(model, env, term.right)
        if ls != "Nat" or rs != "Nat":
            raise ModelError("only Nat terms can be added")
        return ("Nat", lv + rv)
    raise ModelError(f"not a term: {term!r}")


def force(model: ForcingModel, stage, formula, env: Mapping | None = None,
          fuel: int | None = None) -> bool:
    """Whether ``stage`` forces ``formula`` under ``env``.

    ``fuel`` bounds the forcing steps, the (subformula, stage, env)
    triples the verdict demands; past it the run raises
    :class:`FuelExhausted`.  Without fuel, a formula the model cannot
    interpret raises :class:`ModelError` as soon as a demanded triple needs
    the missing piece.  An atom's zone covers the whole basis, so a table
    value with no image at some point of the index raises on the atom's
    first demand, also at a stage that point does not pass through.  With
    a finite fuel and such a formula, which of the two comes first depends
    on the order in which stage sets are walked.
    """
    model.space.basis.require(stage)
    run = _Run(model, fuel)
    return _force(run, stage, formula, dict(env or {}))


def _force(run: _Run, stage, node, env: dict) -> bool:
    return stage in _holds(run, frozenset((stage,)), node, env)


def _holds(run: _Run, stages: frozenset, node, env: dict) -> frozenset:
    """The stages of ``stages`` that force ``node``, each evaluated once."""
    key = (node, run.env_key(node, env))
    entry = run.memo.get(key)
    if entry is None:
        if not stages:
            return stages
        # the first ask keeps the demanded set itself: no copy
        run.tick(len(stages))
        holds = _evaluate(run, stages, node, env, key)
        run.memo[key] = (stages, holds)
        return holds
    seen, holds = entry
    new = stages - seen
    if new:
        run.tick(len(new))
        holds = holds.union(_evaluate(run, new, node, env, key))
        run.memo[key] = (seen | new, holds)
    return stages & holds


def _evaluate(run: _Run, stages: frozenset, node, env: dict, key: tuple) -> frozenset:
    if isinstance(node, F.And):
        return _holds(run, _holds(run, stages, node.left, env), node.right, env)
    forced = run.forced.get(key)
    if forced is None:
        forced = run.forced[key] = _forced(run, node, env)
    return stages & forced


def _forced(run: _Run, node, env: dict) -> frozenset:
    """Every basis element forcing a node other than a conjunction: where
    the zone of falsum, a disjunction or an existential covers, where the
    down-set avoids an implication's or a universal's failure zone, and an
    atom's own zone."""
    topology = run.model.space.topology
    if isinstance(node, F.Falsum):
        return topology.covered(frozenset())
    if isinstance(node, F.Atom):
        return _atom_zone(run, node, env)
    if isinstance(node, (F.Or, F.Exists)):
        return topology.covered(_zone(run, node, env))
    if isinstance(node, (F.Implies, F.Forall)):
        return _avoiding(run, _zone(run, node, env))
    raise ModelError(f"not a formula: {node!r}")


def _avoiding(run: _Run, bad) -> frozenset:
    """Elements whose down-set avoids ``bad``: the complement of its up-closure."""
    if not bad:
        return run.everywhere
    bad = frozenset(bad)
    below = run.model.space.basis.below
    return frozenset(v for v in run.model.space.basis.elements if below(v).isdisjoint(bad))


def _zone(run: _Run, node, env: dict):
    """Basis elements where a connective's stage-local condition holds.

    The member set of a disjunction or existential (and the failure set of
    an implication or universal) is defined pointwise at each element, so it
    does not depend on the stage being forced; it is built once over the
    whole basis.  A disjunction's or existential's zone is downward closed,
    forcing being monotone, so one saturation of it answers every stage; an
    implication or universal holds where the down-set avoids its zone
    (:func:`_forced`).  A quantifier's zone maps each element to its first
    witness (Exists) or counterexample (Forall) in universe order: each
    value is tried only at the elements still without one.
    """
    model = run.model
    key = (node, run.env_key(node, env))
    got = run.zones.get(key)
    if got is not None:
        return got

    everywhere = run.everywhere
    if isinstance(node, F.Or):
        left = _holds(run, everywhere, node.left, env)
        got = left | _holds(run, everywhere - left, node.right, env)
    elif isinstance(node, F.Implies):
        left = _holds(run, everywhere, node.left, env)
        got = left - _holds(run, left, node.right, env)
    elif isinstance(node, (F.Exists, F.Forall)):
        universe = model.universe(node.sort)
        wanted = isinstance(node, F.Exists)
        got, pending = {}, everywhere
        inner_env = dict(env)
        for c in universe:
            if not pending:
                break
            inner_env[node.var] = (node.sort, c)
            held = _holds(run, pending, node.body, inner_env)
            found = held if wanted else pending - held
            if found:
                got.update(dict.fromkeys(found, c))
                pending -= found
    else:
        raise ModelError(f"no zone for {node!r}")

    run.zones[key] = got
    return got


def exists_witness_sieve(model: ForcingModel, stage, premise, node: F.Exists,
                         env: Mapping | None = None, fuel: int | None = None):
    """Force a closed ``premise`` at ``stage``, then read the witness sieve
    of its existential subformula ``node`` under ``env`` in the same run.

    Returns the verdict and, when ``premise`` is forced, the members below
    ``stage`` with a witness for ``node``, each with its first witness: the
    sieve whose covering makes ``node`` forced, from which the rule
    pipelines read their numerical content (``()`` when it is not forced).
    It is read off the existential's zone, built over the whole basis.  The
    rules ask at D(<>), whose down-set is the whole basis, for ``node`` the
    premise itself or the body of a forced ``forall`` at one of its values;
    the premise's run then built that zone already, so the read demands no
    triple the premise did not, and the fuel is the premise's.
    """
    model.space.basis.require(stage)
    run = _Run(model, fuel)
    if not _force(run, stage, premise, {}):
        return False, ()
    zone = _zone(run, node, dict(env or {}))
    return True, tuple((v, zone[v]) for v in model.space.basis.down(stage) if v in zone)


# ------------------------------------------------------------------ atoms

def _atom_zone(run: _Run, node: F.Atom, env: dict) -> frozenset:
    """Every basis element forcing an atom, from one pass over the basis.

    Order and bar atoms, and equality off the stream sorts, hold everywhere
    or nowhere.  ``Eq`` on streams holds where the down-set avoids the
    elements at which the two member sets differ, ``Prefix`` where the
    prefix is a member (below D(u) for the generic), ``Rel`` at the elements
    all of whose points read true (one verdict per point of the index), and
    ``App`` where the elements showing its entry cover.  A pure value's
    members do not depend on the stage, so one test answers for the whole
    basis.
    """
    model, name = run.model, node.name
    if name not in ("Eq", "Leq", "Prefix", "InBar", "Rel", "App"):
        raise ModelError(f"unknown atom {name!r}")
    args = tuple(eval_term(model, env, t) for t in node.args)
    if name == "Eq":
        sort, v1, v2 = _eq_args(args)
        if sort in STREAM_SORTS:
            return _avoiding(run, _where(run, (v1, v2), operator.ne))
        holds = v1 == v2
    elif name == "Prefix":
        value, u = _prefix_args(args)
        top = _generic_prefix_open(model, value, u)
        if top is not None:
            return model.space.basis.below(top)
        return _where(run, (value,), lambda members: u in members)
    elif name == "App":
        value, n, m = _app_args(args)
        # member sets only grow going down, so this zone is downward closed
        return model.space.topology.covered(_where(
            run, (value,), lambda members: any(len(w) > n and w[n] == m for w in members)))
    elif name == "Rel":
        v1, v2 = _rel_args(model, args)
        wrong = {q for q in model.index_points if not _rel_at(model, v1, v2, q)}
        return frozenset(v for v in model.space.basis.elements
                         if wrong.isdisjoint(model.points_through(v)))
    else:
        holds = _leq(args) if name == "Leq" else _in_bar(model, args)
    return run.everywhere if holds else frozenset()


def _where(run: _Run, values: tuple, test) -> frozenset:
    """Elements at which ``test`` holds of the values' member sets; one test
    answers when every value is pure, its members the same at every stage."""
    model = run.model
    if all(value.kind == "pure" for value in values):
        members = [section_members(model, value, None) for value in values]
        return run.everywhere if test(*members) else frozenset()
    return frozenset(v for v in model.space.basis.elements
                     if test(*[section_members(model, value, v) for value in values]))


def _stream_arg(arg, what: str) -> SectionValue:
    sort, value = arg
    if sort not in STREAM_SORTS or not isinstance(value, SectionValue):
        raise ModelError(f"{what} needs a stream argument, got sort {sort}")
    return value


def _eq_args(args) -> tuple:
    if len(args) != 2:
        raise ModelError("Eq takes two arguments")
    (s1, v1), (s2, v2) = args
    if s1 != s2:
        raise ModelError(f"Eq compares values of one sort, got {s1} and {s2}")
    return s1, v1, v2


def _leq(args) -> bool:
    if len(args) != 2 or args[0][0] != "Nat" or args[1][0] != "Nat":
        raise ModelError("Leq takes two Nat arguments")
    return args[0][1] <= args[1][1]


def _in_bar(model, args) -> bool:
    if len(args) != 1 or args[0][0] != "FinSeq":
        raise ModelError("InBar takes one FinSeq argument")
    if model.bar is None:
        raise ModelError("the model has no bar")
    return model.bar.holds(tuple(args[0][1]))


def _prefix_args(args) -> tuple:
    if len(args) != 2 or args[1][0] != "FinSeq":
        raise ModelError("Prefix takes a stream and a finite sequence")
    return _stream_arg(args[0], "Prefix"), tuple(args[1][1])


def _generic_prefix_open(model, value: SectionValue, u: tuple):
    """The open whose down-set is where the generic stream has prefix ``u``.

    The generic's members at D(v) are the initial segments of v, and at {q}
    those of q's prefix, so ``u`` is a member exactly below D(u) (below
    ``u`` on a plain tree).  None unless ``value`` is the generic of the
    tree and ``u`` an open of it.
    """
    if value.kind != "generic":
        return None
    space = model.space
    tree = space.inner if isinstance(space, DoubleSpace) else space
    if value.branch != tree.branch or u not in tree.basis:
        return None
    return DOpen(u) if tree is not space else u


def _app_args(args) -> tuple:
    if len(args) != 3 or args[1][0] != "Nat" or args[2][0] != "Nat":
        raise ModelError("App takes a stream and two Nat arguments")
    return _stream_arg(args[0], "App"), args[1][1], args[2][1]


def _rel_args(model, args) -> tuple:
    if len(args) != 2:
        raise ModelError("Rel takes two arguments")
    v1 = _stream_arg(args[0], "Rel")
    v2 = _stream_arg(args[1], "Rel")
    if model.rel_table is None:
        raise ModelError("the model has no function table for Rel")
    return v1, v2


def _rel_at(model, v1: SectionValue, v2: SectionValue, point: Point) -> bool:
    """f(a) = b along one point.

    Streams are compared by their visible members, so two that agree to the
    truncation depth count as equal.
    """
    image = model.rel_table.get(observe(model, v1, point))
    if image is None:
        raise ModelError(f"the function table has no value at {point}")
    return (point_observation(model, image, v2.branch)
            == point_observation(model, observe(model, v2, point), v2.branch))


GENERIC_NAME = "pi"


def standard_model(
    space: FormalSpace,
    bar: Bar | None = None,
    n_max: int = 8,
    prefix_cap: int | None = None,
    rel_table: Mapping | None = None,
) -> ForcingModel:
    """Model over a truncated space or its double with the standard sorts.

    Nat ranges below ``n_max``, FinSeq over the sequences of the truncated
    tree, and the stream sorts over the eventually constant streams with
    prefixes up to ``prefix_cap`` (default: one past the depth) plus the
    generic stream ``pi``.
    """
    inner = space.inner if isinstance(space, DoubleSpace) else space
    if not isinstance(inner, TruncatedSpace):
        raise ModelError("standard models need a truncated space or a double")
    branch, depth = inner.branch, inner.depth
    if prefix_cap is None:
        prefix_cap = depth + 1

    streams2 = eventually_constant_points(min(branch, 2), prefix_cap)
    streamsN = eventually_constant_points(branch, prefix_cap)
    seq2 = tuple(pure_value(p, 2) for p in streams2)
    seqn = tuple(pure_value(p, branch) for p in streamsN)
    if branch == 2:
        seq2 = seq2 + (generic_value(2),)
        seqn = seq2
    else:
        seqn = seqn + (generic_value(branch),)
    universes = {
        "Nat": tuple(range(n_max)),
        "FinSeq": all_sequences(branch, depth),
        "Seq2": seq2,
        "SeqN": seqn,
    }
    seq_sort = "Seq2" if branch == 2 else "SeqN"
    constants = {GENERIC_NAME: (seq_sort, generic_value(branch))}

    if isinstance(space, DoubleSpace):
        # the chosen points first, then the other streams in sort order
        index = incidence(inner, dict.fromkeys(space.points + streamsN))
        through = {DOpen(u): qs for u, qs in index.items()}
        through.update((SingletonOpen(q), (q,)) for q in space.points)
    else:
        through = incidence(space, streamsN)
    return ForcingModel(
        space=space,
        universes=universes,
        constants=constants,
        bar=bar,
        rel_table=dict(rel_table) if rel_table is not None else None,
        through=through,
        depth=depth,
    )


def with_universe_value(model: ForcingModel, sort: str, value) -> ForcingModel:
    """A copy of the model whose universe for ``sort`` also offers ``value``."""
    universes = dict(model.universes)
    current = universes.get(sort, ())
    if value not in current:
        universes[sort] = current + (value,)
    if sort == "Seq2" and model.universes.get("Seq2") is model.universes.get("SeqN"):
        universes["SeqN"] = universes[sort]
    elif sort == "SeqN" and model.universes.get("Seq2") is model.universes.get("SeqN"):
        universes["Seq2"] = universes[sort]
    return replace(model, universes=universes)


# -------------------------------------------------- classical comparison

def classical_truth(model: ForcingModel, point: Point, formula,
                    env: Mapping | None = None) -> bool:
    """Tarski truth along one stream, for comparison at minimal stages.

    Stream values are observed at the point: the generic becomes the point
    itself and table maps are applied to it.  Observations are compared by
    visible members, exactly as the forcing atoms do.  As in the
    connectives and in forcing's quantifier loop, a quantifier stops at its
    first deciding value (a witness or a counterexample), so a body the
    model can interpret only up to that value gives forcing's verdict, not
    :class:`ModelError`.
    """
    def obs_members(value: SectionValue) -> frozenset:
        return point_observation(model, observe(model, value, point), value.branch)

    def atom(node: F.Atom, env) -> bool:
        args = tuple(eval_term(model, env, t) for t in node.args)
        name = node.name
        if name == "Eq":
            sort, v1, v2 = _eq_args(args)
            if sort in STREAM_SORTS:
                return obs_members(v1) == obs_members(v2)
            return v1 == v2
        if name == "Prefix":
            value, u = _prefix_args(args)
            return u in obs_members(value)
        if name == "App":
            value, n, m = _app_args(args)
            return any(len(w) > n and w[n] == m for w in obs_members(value))
        if name == "Rel":
            return _rel_at(model, *_rel_args(model, args), point)
        if name == "Leq":
            return _leq(args)
        if name == "InBar":
            return _in_bar(model, args)
        raise ModelError(f"unknown atom {name!r}")

    def ev(node, env) -> bool:
        if isinstance(node, F.Falsum):
            return False
        if isinstance(node, F.Atom):
            return atom(node, env)
        if isinstance(node, F.And):
            return ev(node.left, env) and ev(node.right, env)
        if isinstance(node, F.Or):
            return ev(node.left, env) or ev(node.right, env)
        if isinstance(node, F.Implies):
            return (not ev(node.left, env)) or ev(node.right, env)
        if isinstance(node, (F.Exists, F.Forall)):
            quantify = any if isinstance(node, F.Exists) else all
            return quantify(ev(node.body, {**env, node.var: (node.sort, c)})
                            for c in model.universe(node.sort))
        raise ModelError(f"not a formula: {node!r}")

    return ev(formula, env or {})


# ------------------------------------------------------------- cc_refine

class NoRefinementFound(ValueError):
    """No finite disjoint subfamily of the sieve covers the open."""


def cc_refine(space: FormalSpace, a, sieve: Sieve) -> tuple:
    """Canonical finite disjoint subfamily of a covering sieve.

    Tree spaces descend from the root, keeping each sieve member as soon as
    it appears and splitting into children otherwise, which lands on the
    least sufficient bracket piecewise.  Doubles refine in the inner space
    and lift.  Anything else falls back to a smallest-first search through
    disjoint subfamilies.
    """
    if not space.topology.cover(a, sieve).covered:
        raise NotACover(f"{sieve!r} does not cover {a!r}")

    if isinstance(space, DoubleSpace):
        if isinstance(a, SingletonOpen):
            return (a,)
        inner_sieve = space.topology.inner_sieve(a, sieve)
        return tuple(DOpen(v) for v in cc_refine(space.inner, a.seq, inner_sieve))

    if isinstance(space, TruncatedSpace):
        def descend(u):
            if sieve.contains(u):
                return (u,)
            if len(u) >= space.depth:
                raise NotACover(f"{sieve!r} does not cover {a!r}")
            pieces = []
            for i in range(space.branch):
                pieces.extend(descend(u + (i,)))
            return tuple(pieces)

        return descend(a)

    members = sorted(sieve.members, key=element_key)
    basis = space.basis
    for size in range(1, len(members) + 1):
        for combo in itertools.combinations(members, size):
            if any(
                not basis.disjoint(x, y)
                for x, y in itertools.combinations(combo, 2)
            ):
                continue
            if space.topology.cover(a, Sieve.from_generators(basis, a, combo)).covered:
                return combo
    raise NoRefinementFound(f"no disjoint refinement below {a!r}")


class NotDisjoint(ValueError):
    pass


class NotCovering(ValueError):
    pass


@dataclass(frozen=True)
class Amalgamation:
    section: NatSection
    refinement: tuple
    unique: bool


def choice_amalgamation(presheaf: ConstantPresheaf, root, witnesses: Mapping) -> Amalgamation:
    """Glue per-piece choices over a disjoint covering refinement.

    ``witnesses`` assigns a value to each refinement piece.  Disjointness
    makes the family vacuously compatible, so a unique glued section exists;
    uniqueness is re-verified by enumerating the sections over ``root``.
    """
    space = presheaf.space
    basis = space.basis
    pieces = sorted(witnesses, key=element_key)
    for x, y in itertools.combinations(pieces, 2):
        if not basis.disjoint(x, y):
            raise NotDisjoint(f"{x!r} and {y!r} overlap")
    sieve = Sieve.from_generators(basis, root, pieces)
    if not space.topology.cover(root, sieve).covered:
        raise NotCovering(f"the refinement does not cover {root!r}")

    assignments = [(r, witnesses[r]) for r in pieces]
    section = make_section(space, root, assignments)

    matches = [
        s
        for s in presheaf.sections(root)
        if all(value_at(space, s, r) == w for r, w in assignments)
    ]
    return Amalgamation(section, tuple(pieces), matches == [section])
