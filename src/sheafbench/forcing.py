"""Cover semantics for first-order formulas over a formal space.

Truth at a basic open follows the usual sheaf-model clauses: conjunction and
implication are pointwise over the downset, disjunction and existence ask for
a covering sieve of local verdicts, and universal quantification ranges over
every smaller open.  Nat and FinSeq quantifiers draw witnesses from finite
universes of pure values; by pure density this loses no generality on the
spaces built here.  Stream-sort quantifiers range over section values: the
graphs of continuous maps into the truncated tree.  Three kinds are
enumerated — constant maps given by a single stream, the generic stream
``pi`` (the tree part of a double names its own prefix), and maps induced by
a function table on enumerated points.

Every section value is read through its member set at a stage: the basic
opens of the target tree that the map is known to land in.  Atoms look only
at member sets, which keeps them monotone under restriction and local for
covers, the two properties the connective clauses rely on.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Mapping

from .site import FormalSpace, NotACover, Sieve, element_key
from .spaces import Bar, TruncatedSpace, all_sequences, seq_leq
from .points import Point, point_members
from .double import DOpen, DoubleSpace, SingletonOpen, enumerate_double_points
from .sheaves import (
    ConstantPresheaf,
    NatSection,
    finseq_values,
    make_section,
    nat_values,
    stream_values,
    value_at,
)
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
    atoms: Mapping      # atom name -> callable(model, stage, arg values) -> bool
    constants: Mapping  # name -> (sort, value)
    bar: Bar | None = None
    rel_table: Mapping | None = None  # Point -> Point
    point_family: tuple = ()          # (kind, Point, member frozenset)
    depth: int = 0
    _targets: dict = field(default_factory=dict, compare=False, repr=False)
    _members: dict = field(default_factory=dict, compare=False, repr=False)
    _through: dict = field(default_factory=dict, compare=False, repr=False)

    def universe(self, sort: str) -> tuple:
        got = self.universes.get(sort)
        if got is None:
            raise ModelError(f"no universe for sort {sort!r}")
        return got

    def targets(self, branch: int) -> frozenset:
        got = self._targets.get(branch)
        if got is None:
            got = frozenset(all_sequences(branch, self.depth))
            self._targets[branch] = got
        return got

    def points_through(self, stage) -> tuple:
        got = self._through.get(stage)
        if got is None:
            got = tuple(dict.fromkeys(
                q for kind, q, members in self.point_family if stage in members
            ))
            self._through[stage] = got
        return got


def point_observation(model: ForcingModel, point: Point, branch: int) -> frozenset:
    """Basic opens of the target tree the stream is seen to pass through."""
    key = ("obs", point, branch)
    got = model._members.get(key)
    if got is None:
        got = frozenset(w for w in model.targets(branch) if point.passes_through(w))
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
            got = frozenset(w for w in model.targets(value.branch) if seq_leq(seq, w))
    else:
        got = model.targets(value.branch)
        for q in model.points_through(stage):
            got &= point_observation(model, _table_image(value, q), value.branch)
    model._members[key] = got
    return got


class _Run:
    def __init__(self, model: ForcingModel, fuel: int | None):
        self.model = model
        self.fuel = fuel
        self.steps = 0
        self.memo: dict = {}
        self.zones: dict = {}
        self.free_cache: dict = {}

    def tick(self):
        self.steps += 1
        if self.fuel is not None and self.steps > self.fuel:
            raise FuelExhausted(self.steps)

    def free(self, node) -> tuple:
        """Free names of the node, sorted, cached per node."""
        got = self.free_cache.get(node)
        if got is None:
            got = tuple(sorted(F.free_names(node)))
            self.free_cache[node] = got
        return got

    def env_key(self, node, env: dict) -> tuple:
        """Relevant slice of the environment as a fixed-order value tuple."""
        return tuple(env.get(k) for k in self.free(node))


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
    model.space.basis.require(stage)
    run = _Run(model, fuel)
    return _force(run, stage, formula, dict(env or {}))


def _force(run: _Run, stage, node, env: dict) -> bool:
    model = run.model
    key = (node, stage, run.env_key(node, env))
    if key in run.memo:
        return run.memo[key]
    run.tick()

    basis = model.space.basis
    topology = model.space.topology

    if isinstance(node, F.Falsum):
        out = topology.cover(stage, Sieve.empty(basis, stage)).covered
    elif isinstance(node, F.Atom):
        impl = model.atoms.get(node.name)
        if impl is None:
            raise ModelError(f"unknown atom {node.name!r}")
        args = tuple(eval_term(model, env, t) for t in node.args)
        out = bool(impl(model, stage, args))
    elif isinstance(node, F.And):
        out = _force(run, stage, node.left, env) and _force(run, stage, node.right, env)
    elif isinstance(node, (F.Or, F.Exists)):
        good = _zone(run, node, env)
        members = [v for v in basis.down(stage) if v in good]
        out = topology.cover(stage, Sieve.from_generators(basis, stage, members)).covered
    elif isinstance(node, (F.Implies, F.Forall)):
        bad = _zone(run, node, env)
        out = not any(v in bad for v in basis.down(stage))
    else:
        raise ModelError(f"not a formula: {node!r}")

    run.memo[key] = out
    return out


def _zone(run: _Run, node, env: dict) -> frozenset:
    """Basis elements where a connective's stage-local condition holds.

    The member set of a disjunction or existential (and the failure set of
    an implication or universal) is defined pointwise at each element, so it
    does not depend on the stage being forced; computing it once over the
    whole basis lets every stage reuse it as an intersection with its
    downset.
    """
    model = run.model
    key = (node, run.env_key(node, env))
    got = run.zones.get(key)
    if got is not None:
        return got

    elements = model.space.basis.elements
    if isinstance(node, F.Or):
        got = frozenset(
            v
            for v in elements
            if _force(run, v, node.left, env) or _force(run, v, node.right, env)
        )
    elif isinstance(node, F.Implies):
        got = frozenset(
            v
            for v in elements
            if _force(run, v, node.left, env) and not _force(run, v, node.right, env)
        )
    elif isinstance(node, (F.Exists, F.Forall)):
        # elements with a witness (Exists) or a counterexample (Forall)
        universe = model.universe(node.sort)
        wanted = isinstance(node, F.Exists)
        hits = []
        for v in elements:
            inner_env = dict(env)
            for c in universe:
                inner_env[node.var] = (node.sort, c)
                if _force(run, v, node.body, inner_env) == wanted:
                    hits.append(v)
                    break
        got = frozenset(hits)
    else:
        raise ModelError(f"no zone for {node!r}")

    run.zones[key] = got
    return got


def exists_witness_sieve(model: ForcingModel, stage, var: str, sort: str, body,
                         env: Mapping | None = None, fuel: int | None = None):
    """Members below ``stage`` with a witness, first witness recorded each.

    This is the sieve whose covering makes an existential forced; the rule
    pipelines use it to read off their numerical content.
    """
    run = _Run(model, fuel)
    base_env = dict(env or {})
    basis = model.space.basis
    members = []
    for v in basis.down(stage):
        for c in model.universe(sort):
            inner_env = dict(base_env)
            inner_env[var] = (sort, c)
            if _force(run, v, body, inner_env):
                members.append((v, c))
                break
    return tuple(members)


# ------------------------------------------------------------------ atoms

def _stream_arg(arg, what: str) -> SectionValue:
    sort, value = arg
    if sort not in STREAM_SORTS or not isinstance(value, SectionValue):
        raise ModelError(f"{what} needs a stream argument, got sort {sort}")
    return value


def eq_atom(model, stage, args) -> bool:
    if len(args) != 2:
        raise ModelError("Eq takes two arguments")
    (s1, v1), (s2, v2) = args
    if s1 != s2:
        raise ModelError(f"Eq compares values of one sort, got {s1} and {s2}")
    if s1 in STREAM_SORTS:
        return all(
            section_members(model, v1, v) == section_members(model, v2, v)
            for v in model.space.basis.down(stage)
        )
    return v1 == v2


def leq_atom(model, stage, args) -> bool:
    if len(args) != 2 or args[0][0] != "Nat" or args[1][0] != "Nat":
        raise ModelError("Leq takes two Nat arguments")
    return args[0][1] <= args[1][1]


def prefix_atom(model, stage, args) -> bool:
    if len(args) != 2 or args[1][0] != "FinSeq":
        raise ModelError("Prefix takes a stream and a finite sequence")
    value = _stream_arg(args[0], "Prefix")
    return tuple(args[1][1]) in section_members(model, value, stage)


def app_atom(model, stage, args) -> bool:
    if len(args) != 3 or args[1][0] != "Nat" or args[2][0] != "Nat":
        raise ModelError("App takes a stream and two Nat arguments")
    value = _stream_arg(args[0], "App")
    n, m = args[1][1], args[2][1]

    def seen(v) -> bool:
        return any(
            len(w) > n and w[n] == m for w in section_members(model, value, v)
        )

    basis = model.space.basis
    members = [v for v in basis.down(stage) if seen(v)]
    sieve = Sieve.from_generators(basis, stage, members)
    return model.space.topology.cover(stage, sieve).covered


def inbar_atom(model, stage, args) -> bool:
    if len(args) != 1 or args[0][0] != "FinSeq":
        raise ModelError("InBar takes one FinSeq argument")
    if model.bar is None:
        raise ModelError("the model has no bar")
    return model.bar.holds(tuple(args[0][1]))


def rel_atom(model, stage, args) -> bool:
    """f(a) = b, read along every enumerated point through the stage.

    Streams are compared by their visible members, so two that agree to the
    truncation depth count as equal.
    """
    if len(args) != 2:
        raise ModelError("Rel takes two arguments")
    v1 = _stream_arg(args[0], "Rel")
    v2 = _stream_arg(args[1], "Rel")
    if model.rel_table is None:
        raise ModelError("the model has no function table for Rel")
    branch = v2.branch
    for q in model.points_through(stage):
        image = model.rel_table.get(observe(model, v1, q))
        if image is None:
            raise ModelError(f"the function table has no value at {q}")
        expected = point_observation(model, image, branch)
        if point_observation(model, observe(model, v2, q), branch) != expected:
            return False
    return True


def standard_atoms() -> dict:
    return {
        "Eq": eq_atom,
        "Leq": leq_atom,
        "Prefix": prefix_atom,
        "App": app_atom,
        "InBar": inbar_atom,
        "Rel": rel_atom,
    }


GENERIC_NAME = "pi"


def standard_model(
    space: FormalSpace,
    bar: Bar | None = None,
    n_max: int = 8,
    len_cap: int | None = None,
    prefix_cap: int | None = None,
    rel_table: Mapping | None = None,
    extra_constants: Mapping | None = None,
    extra_atoms: Mapping | None = None,
) -> ForcingModel:
    """Model over a truncated space or its double with the standard sorts."""
    inner = space.inner if isinstance(space, DoubleSpace) else space
    if not isinstance(inner, TruncatedSpace):
        raise ModelError("standard models need a truncated space or a double")
    branch, depth = inner.branch, inner.depth
    if len_cap is None:
        len_cap = depth
    if prefix_cap is None:
        prefix_cap = depth + 1

    streams2 = stream_values(min(branch, 2), prefix_cap)
    streamsN = stream_values(branch, prefix_cap)
    seq2 = tuple(pure_value(p, 2) for p in streams2)
    seqn = tuple(pure_value(p, branch) for p in streamsN)
    if branch == 2:
        seq2 = seq2 + (generic_value(2),)
        seqn = seq2
    else:
        seqn = seqn + (generic_value(branch),)
    universes = {
        "Nat": nat_values(n_max),
        "FinSeq": finseq_values(branch, len_cap),
        "Seq2": seq2,
        "SeqN": seqn,
    }
    seq_sort = "Seq2" if branch == 2 else "SeqN"
    constants = {GENERIC_NAME: (seq_sort, generic_value(branch))}
    if extra_constants:
        constants.update(extra_constants)
    atoms = standard_atoms()
    if extra_atoms:
        atoms.update(extra_atoms)

    if isinstance(space, DoubleSpace):
        family = enumerate_double_points(space, extra_points=streamsN)
    else:
        family = tuple(
            ("lifted", q, frozenset(point_members(space, q))) for q in streamsN
        )
    return ForcingModel(
        space=space,
        universes=universes,
        atoms=atoms,
        constants=constants,
        bar=bar,
        rel_table=dict(rel_table) if rel_table is not None else None,
        point_family=family,
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
    visible members, exactly as the forcing atoms do.
    """
    env = dict(env or {})

    def obs_members(value: SectionValue) -> frozenset:
        return point_observation(model, observe(model, value, point), value.branch)

    def atom(node: F.Atom) -> bool:
        args = tuple(eval_term(model, env, t) for t in node.args)
        name = node.name
        if name == "Eq":
            (s1, v1), (s2, v2) = args
            if s1 != s2:
                raise ModelError(f"Eq compares values of one sort, got {s1} and {s2}")
            if s1 in STREAM_SORTS:
                return obs_members(v1) == obs_members(v2)
            return v1 == v2
        if name == "Prefix":
            value = _stream_arg(args[0], "Prefix")
            return tuple(args[1][1]) in obs_members(value)
        if name == "App":
            value = _stream_arg(args[0], "App")
            n, m = args[1][1], args[2][1]
            return any(len(w) > n and w[n] == m for w in obs_members(value))
        if name == "Rel":
            v1 = _stream_arg(args[0], "Rel")
            v2 = _stream_arg(args[1], "Rel")
            if model.rel_table is None:
                raise ModelError("the model has no function table for Rel")
            image = model.rel_table.get(observe(model, v1, point))
            if image is None:
                raise ModelError(f"the function table has no value at {point}")
            return point_observation(model, image, v2.branch) == obs_members(v2)
        impl = model.atoms.get(name)
        if impl is None:
            raise ModelError(f"unknown atom {name!r}")
        return bool(impl(model, None, args))

    def ev(node) -> bool:
        if isinstance(node, F.Falsum):
            return False
        if isinstance(node, F.Atom):
            return atom(node)
        if isinstance(node, F.And):
            return ev(node.left) and ev(node.right)
        if isinstance(node, F.Or):
            return ev(node.left) or ev(node.right)
        if isinstance(node, F.Implies):
            return (not ev(node.left)) or ev(node.right)
        if isinstance(node, (F.Exists, F.Forall)):
            universe = model.universe(node.sort)
            missing = object()
            shadowed = env.get(node.var, missing)
            results = []
            for c in universe:
                env[node.var] = (node.sort, c)
                results.append(ev(node.body))
            if shadowed is missing:
                env.pop(node.var, None)
            else:
                env[node.var] = shadowed
            return any(results) if isinstance(node, F.Exists) else all(results)
        raise ModelError(f"not a formula: {node!r}")

    return ev(formula)


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
        inner = space.inner
        inner_sieve = Sieve.from_generators(
            inner.basis,
            a.seq,
            [v for v in inner.basis.down(a.seq) if sieve.contains(DOpen(v))],
        )
        return tuple(DOpen(v) for v in cc_refine(inner, a.seq, inner_sieve))

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


def choice_amalgamation(
    presheaf: ConstantPresheaf,
    root,
    witnesses: Mapping,
    verify_unique: bool = True,
) -> Amalgamation:
    """Glue per-piece choices over a disjoint covering refinement.

    ``witnesses`` assigns a value to each refinement piece.  Disjointness
    makes the family vacuously compatible, so a unique glued section exists;
    uniqueness is re-verified by enumeration unless switched off.
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

    unique = True
    if verify_unique:
        matches = [
            s
            for s in presheaf.sections(root)
            if all(value_at(space, s, r) == w for r, w in assignments)
        ]
        unique = matches == [section]
    return Amalgamation(section, tuple(pieces), unique)
