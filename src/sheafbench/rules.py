"""Extraction pipelines turning forced premises into numerical content.

Three rules are implemented over the double of a truncated sequence space:
a uniform bound for a monotone bar (fan), bar induction replayed through
the covering system (bar), and a continuous choice function with a modulus
read off a forced functional relation (continuity).  Each pipeline returns
its conclusion together with an :class:`ExtractionTranscript` whose stages
are plain recomputable data; :func:`recheck_transcript` re-verifies every
stage independently of the code that produced it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from . import formulas as F
from .double import DOpen, DoubleSpace, build_double
from .forcing import (
    ForcingModel,
    classical_truth,
    exists_witness_sieve,
    force,
    generic_value,
    observe,
    point_observation,
    pure_value,
    standard_model,
    table_value,
    with_universe_value,
)
from .points import Point, eventually_constant_points
from .sheaves import stream_values
from .site import (
    HypothesisFails,
    NotACover,
    Sieve,
    cover_induction,
    element_key,
    recheck_cover_induction,
)
from .spaces import (
    Bar,
    TruncatedSpace,
    bar_to_sieve,
    seq_leq,
    u_bracket,
)

# ------------------------------------------------------------------ errors


class PremiseNotForced(ValueError):
    """A rule premise fails to force; carries the stage that broke."""

    def __init__(self, stage: str):
        self.stage = stage
        super().__init__(f"premise not forced (failing stage: {stage})")


class NotForced(ValueError):
    """No section satisfies the functional relation at the root."""


class NotUnique(ValueError):
    """Two observationally distinct sections both satisfy the relation."""

    def __init__(self, first, second):
        self.first, self.second = first, second
        super().__init__(f"both {first!r} and {second!r} are forced images")


class NoModulus(ValueError):
    """No prefix length within the truncation pins down the output."""

    def __init__(self, point: Point, k: int):
        self.point, self.k = point, k
        super().__init__(
            f"no prefix of {point!r} within the truncation determines the "
            f"first {k} output entries"
        )


# -------------------------------------------------------------- transcript


@dataclass(frozen=True)
class ExtractionTranscript:
    """Staged record of one rule extraction.

    ``stages`` lists ``(name, payload)`` pairs in pipeline order; payloads
    hold only recomputable facts.  ``context`` carries the inputs a verifier
    needs to replay the stages (bar, space, double, model) and is excluded
    from comparisons.
    """

    rule: str
    stages: tuple
    output: object
    context: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def stage_names(self) -> tuple:
        return tuple(name for name, _ in self.stages)

    def stage(self, name: str) -> dict:
        for got, payload in self.stages:
            if got == name:
                return payload
        raise KeyError(name)


FAN_PREMISE = "forall a:Seq2. exists u:FinSeq. Prefix(a, u) & InBar(u)"
BAR_PREMISE = "forall a:SeqN. exists u:FinSeq. Prefix(a, u) & InBar(u)"
UNIQUE_IMAGE = "exists b:SeqN. Rel(pi, b) & (forall c:SeqN. Rel(pi, c) -> Eq(b, c))"


def _double_model(space: TruncatedSpace, **kwargs) -> tuple[DoubleSpace, ForcingModel]:
    double = build_double(space, eventually_constant_points(space.branch, 1))
    # The extraction content rides on the generic stream; pure streams are
    # sanity instances, so the universe stays small instead of growing with
    # the truncation depth.
    kwargs.setdefault("prefix_cap", 2)
    return double, standard_model(double, **kwargs)


def _witness_map(model: ForcingModel, double: DoubleSpace, premise, fuel):
    """First witnesses of the generic instance of a forced ``forall/exists``."""
    ex = premise.body
    env = {premise.var: (premise.sort, generic_value(double.inner.branch))}
    pairs = exists_witness_sieve(
        model, double.d(()), ex.var, ex.sort, ex.body, env=env, fuel=fuel
    )
    inner = {m.seq: w for m, w in pairs if isinstance(m, DOpen)}
    return tuple(pairs), inner


# ---------------------------------------------------------------- fan rule


@dataclass(frozen=True)
class FanRuleInput:
    """A monotone bar on the truncated binary space, verified on intake."""

    bar: Bar

    def __post_init__(self):
        if self.bar.space.kind != "cantor":
            raise ValueError("the fan rule runs over the truncated binary space")
        if not self.bar.monotone:
            verified = Bar(
                self.bar.space,
                self.bar.predicate,
                monotone=True,
                inductive=self.bar.inductive,
            )
            object.__setattr__(self, "bar", verified)


def least_uniform_depth(bar: Bar) -> int | None:
    """Brute-force scan for the least q with the whole level q inside the bar."""
    for q in range(bar.space.depth + 1):
        if all(bar.holds(v) for v in u_bracket(bar.space, (), q)):
            return q
    return None


def fan_rule(inp: FanRuleInput | Bar, fuel: int | None = None):
    """Uniform depth for a monotone bar, extracted from the forced premise.

    Forces ``forall a. exists u. Prefix(a, u) & InBar(u)`` at D(<>) of the
    double, reads the witness sieve of the generic instance, takes the least
    level lying wholly inside it, checks every witness is a genuine prefix
    landing in the bar, evaluates the witness instance at the eventually-zero
    point through each level member, and concludes along monotonicity.
    Returns ``(n, transcript)`` with every length-n sequence in the bar.
    """
    if isinstance(inp, Bar):
        inp = FanRuleInput(inp)
    bar = inp.bar
    space = bar.space
    double, model = _double_model(space, bar=bar)
    root = double.d(())
    premise = F.parse_formula(FAN_PREMISE)
    ex = premise.body
    stages = []

    if not force(model, root, premise, fuel=fuel):
        raise PremiseNotForced("premise")
    stages.append(("premise", {"formula": str(premise), "root": root}))

    pairs, inner_witness = _witness_map(model, double, premise, fuel)
    stages.append(("witness-sieve", {"pairs": pairs}))

    n0 = None
    for q in range(space.depth + 1):
        if all(v in inner_witness for v in u_bracket(space, (), q)):
            n0 = q
            break
    if n0 is None:
        raise PremiseNotForced("uniform-depth")
    stages.append(("uniform-depth", {"n0": n0}))

    n, frontier = None, ()
    for q in range(n0, space.depth + 1):
        level = u_bracket(space, (), q)
        if all(
            v in inner_witness and seq_leq(v, inner_witness[v]) for v in level
        ):
            n, frontier = q, level
            break
    if n is None:
        raise PremiseNotForced("purification")
    stages.append(
        ("purification", {"n": n, "witnesses": tuple((v, inner_witness[v]) for v in frontier)})
    )

    discharges = []
    for v in frontier:
        point = Point(v, 0)
        u = inner_witness[v]
        env = {
            premise.var: (premise.sort, pure_value(point, space.branch)),
            ex.var: (ex.sort, u),
        }
        if not classical_truth(model, point, ex.body, env=env):
            raise PremiseNotForced("minimal-point")
        if point in double.points:
            generic_env = {
                premise.var: (premise.sort, generic_value(space.branch)),
                ex.var: (ex.sort, u),
            }
            if not force(model, double.singleton(point), ex.body, env=generic_env, fuel=fuel):
                raise PremiseNotForced("minimal-point")
        discharges.append((v, point, u))
    stages.append(("minimal-point", {"discharges": tuple(discharges)}))

    conclusions = []
    for v in frontier:
        if not bar.holds(v):
            raise PremiseNotForced("monotone-step")
        conclusions.append((v, inner_witness[v]))
    stages.append(("monotone-step", {"conclusions": tuple(conclusions)}))

    brute = least_uniform_depth(bar)
    direct = space.topology.cover((), bar_to_sieve(bar))
    if (
        brute is None
        or n < brute
        or direct.depth != brute
        or not all(bar.holds(v) for v in u_bracket(space, (), n))
    ):
        raise AssertionError("extracted depth disagrees with the brute-force scan")
    stages.append(("cross-check", {"brute": brute, "cover_depth": direct.depth}))

    transcript = ExtractionTranscript(
        rule="fan",
        stages=tuple(stages),
        output=n,
        context={"bar": bar, "space": space, "double": double, "model": model},
    )
    return n, transcript


def _recheck_fan(transcript: ExtractionTranscript, fuel: int | None = None) -> tuple:
    bar = transcript.context["bar"]
    space = transcript.context["space"]
    double = transcript.context["double"]
    model = transcript.context["model"]
    premise = F.parse_formula(FAN_PREMISE)
    ex = premise.body
    failed = []

    if not force(model, double.d(()), premise, fuel=fuel):
        failed.append("premise")

    pairs, inner_witness = _witness_map(model, double, premise, fuel)
    if pairs != transcript.stage("witness-sieve")["pairs"]:
        failed.append("witness-sieve")

    def uniform(q: int) -> bool:
        return all(v in inner_witness for v in u_bracket(space, (), q))

    n0 = transcript.stage("uniform-depth")["n0"]
    if not uniform(n0) or any(uniform(q) for q in range(n0)):
        failed.append("uniform-depth")

    purification = transcript.stage("purification")
    n = purification["n"]
    if n != transcript.output or not all(
        seq_leq(v, u) and bar.holds(u) for v, u in purification["witnesses"]
    ):
        failed.append("purification")

    for v, point, u in transcript.stage("minimal-point")["discharges"]:
        env = {
            premise.var: (premise.sort, pure_value(point, space.branch)),
            ex.var: (ex.sort, u),
        }
        if not point.passes_through(v) or not classical_truth(model, point, ex.body, env=env):
            failed.append("minimal-point")
            break

    if not all(bar.holds(v) for v, _ in transcript.stage("monotone-step")["conclusions"]):
        failed.append("monotone-step")

    cross = transcript.stage("cross-check")
    if (
        least_uniform_depth(bar) != cross["brute"]
        or n < cross["brute"]
        or not all(bar.holds(v) for v in u_bracket(space, (), n))
    ):
        failed.append("cross-check")
    return tuple(failed)


# ---------------------------------------------------------------- bar rule


def inductive_closure_steps(space: TruncatedSpace, base) -> tuple:
    """Iterate "all children satisfied, hence the node" strictly by levels.

    Returns ``(step, trace)``: the iteration at which the root entered
    (``None`` when the closure saturates without reaching it) and the class
    reached after each step, starting with the base itself.
    """
    elements = frozenset(space.basis.elements)
    current = frozenset(base) & elements
    trace = [current]
    step = 0
    while () not in current:
        grown = set(current)
        for u in elements:
            if len(u) < space.depth and u not in grown:
                if all(u + (i,) in current for i in range(space.branch)):
                    grown.add(u)
        grown = frozenset(grown)
        if grown == current:
            return None, tuple(trace)
        current = grown
        step += 1
        trace.append(current)
    return step, tuple(trace)


def bar_rule(bar: Bar, fuel: int | None = None):
    """Bar induction replayed through the covering system of the space.

    Requires the bar monotone and inductive (re-verified when the flags are
    unset).  Forces the same premise as the fan rule over the double, turns
    the generic witness sieve into a cover of <> on which the predicate
    holds, replays the induction through the covering system, and checks an
    independent closure iteration reaches the root.  Returns
    ``(True, transcript)``; failures raise instead.
    """
    space = bar.space
    if not isinstance(space, TruncatedSpace):
        raise ValueError("bar induction runs over a truncated sequence space")
    if not (bar.monotone and bar.inductive):
        bar = Bar(space, bar.predicate, monotone=True, inductive=True)
    double, model = _double_model(space, bar=bar)
    root = double.d(())
    premise = F.parse_formula(BAR_PREMISE)
    stages = []

    if not force(model, root, premise, fuel=fuel):
        raise PremiseNotForced("premise")
    stages.append(("premise", {"formula": str(premise), "root": root}))

    pairs, inner_witness = _witness_map(model, double, premise, fuel)
    stages.append(("witness-sieve", {"pairs": pairs}))

    witnesses = tuple(sorted(inner_witness.items(), key=lambda kv: element_key(kv[0])))
    for v, u in witnesses:
        if not (seq_leq(v, u) and bar.holds(u) and bar.holds(v)):
            raise PremiseNotForced("cover")
    cover = Sieve.from_generators(space.basis, (), tuple(inner_witness))
    stages.append(("cover", {"witnesses": witnesses}))

    try:
        induction = cover_induction(space.system, bar.holds, (), cover, fuel)
    except NotACover as err:
        raise PremiseNotForced("cover") from err
    stages.append(("induction", {"transcript": induction}))

    base = frozenset(v for v in space.leaves() if bar.holds(v))
    root_step, trace = inductive_closure_steps(space, base)
    if root_step is None:
        raise HypothesisFails((), None)
    stages.append(("closure-oracle", {"base": base, "root_step": root_step}))

    transcript = ExtractionTranscript(
        rule="bar",
        stages=tuple(stages),
        output=True,
        context={
            "bar": bar,
            "space": space,
            "double": double,
            "model": model,
            "cover": cover,
        },
    )
    return True, transcript


def _recheck_bar(transcript: ExtractionTranscript, fuel: int | None = None) -> tuple:
    bar = transcript.context["bar"]
    space = transcript.context["space"]
    double = transcript.context["double"]
    model = transcript.context["model"]
    cover = transcript.context["cover"]
    premise = F.parse_formula(BAR_PREMISE)
    failed = []

    if not force(model, double.d(()), premise, fuel=fuel):
        failed.append("premise")

    pairs, _ = _witness_map(model, double, premise, fuel)
    if pairs != transcript.stage("witness-sieve")["pairs"]:
        failed.append("witness-sieve")

    witnesses = transcript.stage("cover")["witnesses"]
    if not all(
        seq_leq(v, u) and bar.holds(u) and bar.holds(v) for v, u in witnesses
    ) or frozenset(v for v, _ in witnesses) != frozenset(cover.members):
        failed.append("cover")

    induction = transcript.stage("induction")["transcript"]
    if not recheck_cover_induction(induction, space.system, bar.holds, cover):
        failed.append("induction")

    oracle = transcript.stage("closure-oracle")
    step, _ = inductive_closure_steps(space, oracle["base"])
    if step != oracle["root_step"] or step is None:
        failed.append("closure-oracle")
    return tuple(failed)


# --------------------------------------------------------- continuity rule


def _modulus_at(points, images, alpha: Point, k: int, depth: int) -> int | None:
    """Least m with the k-prefix of the image constant on the m-neighbourhood."""
    want = images[alpha].prefix_of(k)
    for m in range(depth + 2):
        anchor = alpha.prefix_of(m)
        if all(
            images[beta].prefix_of(k) == want
            for beta in points
            if beta.prefix_of(m) == anchor
        ):
            return m
    return None


def continuity_rule(rel: Mapping, space: TruncatedSpace, fuel: int | None = None):
    """Choice function with a modulus, extracted from a functional relation.

    ``rel`` maps every enumerated point of the space to a point.  The
    pipeline checks the table is total and admits a modulus of continuity
    within the truncation, adds the graph of the table to the stream
    universe, forces "there is exactly one image of the generic stream" at
    D(<>), reads the chosen section off the witness, and tabulates the
    induced function on points.  Returns ``(f, modulus, transcript)`` where
    ``f`` maps enumerated points to points and ``modulus[(point, k)]`` is
    the least prefix length that pins down the first ``k`` output entries.
    """
    branch, depth = space.branch, space.depth
    points = stream_values(branch, depth + 1)
    table = dict(rel)
    for q in points:
        if q not in table:
            raise ValueError(f"the table has no value at {q!r}")
    images = {q: table[q] for q in points}
    stages = [("total", {"points": points})]

    modulus = {}
    for alpha in points:
        for k in range(depth + 1):
            m = _modulus_at(points, images, alpha, k, depth)
            if m is None:
                raise NoModulus(alpha, k)
            modulus[(alpha, k)] = m
    stages.append(("modulus", {"table": dict(modulus)}))

    double, model = _double_model(space, rel_table=images)
    seq_sort = "Seq2" if branch == 2 else "SeqN"
    model = with_universe_value(model, seq_sort, table_value(images, branch, label="rel"))
    root = double.d(())
    formula = F.parse_formula(UNIQUE_IMAGE)

    if not force(model, root, formula, fuel=fuel):
        rel_atom = F.parse_formula("Rel(pi, b)")
        eq_atom = F.parse_formula("Eq(b, c)")
        forced = [
            x
            for x in model.universe("SeqN")
            if force(model, root, rel_atom, env={"b": ("SeqN", x)}, fuel=fuel)
        ]
        for i, x in enumerate(forced):
            for y in forced[i + 1 :]:
                env = {"b": ("SeqN", x), "c": ("SeqN", y)}
                if not force(model, root, eq_atom, env=env, fuel=fuel):
                    raise NotUnique(x, y)
        raise NotForced("the unique-image premise fails at the root")
    stages.append(("premise", {"formula": str(formula), "root": root}))

    pairs = exists_witness_sieve(
        model, root, formula.var, formula.sort, formula.body, fuel=fuel
    )
    chosen = dict(pairs).get(root)
    if chosen is None:
        raise NotForced("no witness for the image at the root")
    stages.append(("section", {"value": chosen}))

    graph = {alpha: observe(model, chosen, alpha) for alpha in points}
    for alpha in points:
        got = point_observation(model, graph[alpha], branch)
        want = point_observation(model, images[alpha], branch)
        if got != want:
            raise AssertionError("the extracted function disagrees with the table")
    ordered = tuple(sorted(graph.items(), key=lambda kv: kv[0].sort_key))
    stages.append(("graph", {"pairs": ordered}))

    transcript = ExtractionTranscript(
        rule="continuity",
        stages=tuple(stages),
        output=ordered,
        context={"space": space, "double": double, "model": model, "table": images},
    )
    return graph, modulus, transcript


def _recheck_continuity(transcript: ExtractionTranscript, fuel: int | None = None) -> tuple:
    space = transcript.context["space"]
    double = transcript.context["double"]
    model = transcript.context["model"]
    images = transcript.context["table"]
    branch, depth = space.branch, space.depth
    failed = []

    points = transcript.stage("total")["points"]
    if points != stream_values(branch, depth + 1) or any(q not in images for q in points):
        failed.append("total")

    recorded = transcript.stage("modulus")["table"]
    for (alpha, k), m in recorded.items():
        if _modulus_at(points, images, alpha, k, depth) != m:
            failed.append("modulus")
            break

    formula = F.parse_formula(UNIQUE_IMAGE)
    root = double.d(())
    if not force(model, root, formula, fuel=fuel):
        failed.append("premise")

    chosen = transcript.stage("section")["value"]
    if not force(model, root, formula.body, env={formula.var: (formula.sort, chosen)}, fuel=fuel):
        failed.append("section")

    for alpha, image in transcript.stage("graph")["pairs"]:
        got = point_observation(model, observe(model, chosen, alpha), branch)
        if got != point_observation(model, image, branch) or got != point_observation(
            model, images[alpha], branch
        ):
            failed.append("graph")
            break
    return tuple(failed)


_RECHECKERS = {
    "fan": _recheck_fan,
    "bar": _recheck_bar,
    "continuity": _recheck_continuity,
}


def recheck_transcript(transcript: ExtractionTranscript, fuel: int | None = None) -> tuple:
    """Names of the stages failing re-verification; empty means all pass."""
    checker = _RECHECKERS.get(transcript.rule)
    if checker is None:
        raise ValueError(f"unknown rule {transcript.rule!r}")
    return checker(transcript, fuel)
