"""Extraction pipelines turning forced premises into numerical content.

Three rules are implemented over the double of a truncated sequence space:
a uniform bound for a monotone bar (fan), bar induction replayed through
the covering system (bar), and a continuous choice function with a modulus
read off a forced functional relation (continuity).  Each pipeline returns
its conclusion together with an :class:`ExtractionTranscript` whose stages
are plain recomputable data; :func:`recheck_transcript` re-verifies every
stage independently of the code that produced it.  A transcript keeps the
rule's input, and the recheck builds its own double and forcing model from
it, so no cache of the producing run can vouch for itself.
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
    hold only recomputable facts.  ``source`` is the rule's input, the bar
    for fan and bar and ``(space, table)`` for continuity, from which a
    recheck builds a model of its own; it is excluded from comparisons and
    from the JSON.
    """

    rule: str
    stages: tuple
    output: object
    source: object = field(compare=False, repr=False)

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


def _table_model(space: TruncatedSpace, images: Mapping) -> tuple[DoubleSpace, ForcingModel]:
    """The double and model a continuity premise is forced in: the graph of
    the table joins the stream universe."""
    double, model = _double_model(space, rel_table=images)
    seq_sort = "Seq2" if space.branch == 2 else "SeqN"
    graph = table_value(images, space.branch, label="rel")
    return double, with_universe_value(model, seq_sort, graph)


def _premise_witnesses(bar: Bar, text: str, fuel):
    """Force a bar premise at D(<>) of the double and read, in the same run,
    the witness sieve of its generic instance.

    Returns the double, its model, the parsed premise, the ``premise``
    stage payload, the verdict, the sieve's pairs (``()`` when the premise
    is not forced) and the first witness of each inner open.
    """
    double, model = _double_model(bar.space, bar=bar)
    premise = F.parse_formula(text)
    root = double.d(())
    env = {premise.var: (premise.sort, generic_value(double.inner.branch))}
    forced, pairs = exists_witness_sieve(model, root, premise, premise.body, env=env, fuel=fuel)
    inner = {m.seq: w for m, w in pairs if isinstance(m, DOpen)}
    stage = {"formula": str(premise), "root": root}
    return double, model, premise, stage, forced, pairs, inner


def _forced_premise(bar: Bar, text: str, fuel):
    """Force a bar premise at D(<>) of the double and read its witness map.

    Returns the double, its model, the parsed premise, the ``premise`` and
    ``witness-sieve`` stages, and the first witness of each inner open.
    """
    double, model, premise, stage, forced, pairs, inner_witness = _premise_witnesses(
        bar, text, fuel)
    if not forced:
        raise PremiseNotForced("premise")
    stages = [("premise", stage), ("witness-sieve", {"pairs": pairs})]
    return double, model, premise, stages, inner_witness


def _recheck_premise(transcript: ExtractionTranscript, text: str, fuel) -> tuple:
    """Re-force a bar premise in a fresh model and re-read its witness map.

    Returns the model, the parsed premise, the witness map and the names
    of the ``premise`` and ``witness-sieve`` stages that fail; an unforced
    premise reads an empty witness map.
    """
    _, model, premise, stage, forced, pairs, inner_witness = _premise_witnesses(
        transcript.source, text, fuel)
    failed = []
    if not forced or transcript.stage("premise") != stage:
        failed.append("premise")
    if pairs != transcript.stage("witness-sieve")["pairs"]:
        failed.append("witness-sieve")
    return model, premise, inner_witness, failed


# ---------------------------------------------------------------- fan rule


def least_uniform_depth(bar: Bar) -> int | None:
    """Brute-force scan for the least q with the whole level q inside the bar."""
    for q in range(bar.space.depth + 1):
        if all(bar.holds(v) for v in u_bracket(bar.space, (), q)):
            return q
    return None


def fan_rule(bar: Bar, fuel: int | None = None):
    """Uniform depth for a monotone bar, extracted from the forced premise.

    Forces ``forall a. exists u. Prefix(a, u) & InBar(u)`` at D(<>) of the
    double, reads the witness sieve of the generic instance, takes the least
    level lying wholly inside it, checks every witness is a genuine prefix
    landing in the bar, evaluates the witness instance at the eventually-zero
    point through each level member, and concludes along monotonicity.
    Returns ``(n, transcript)`` with every length-n sequence in the bar;
    the bar is re-verified monotone when its flag is unset.
    """
    space = bar.space
    if space.kind != "cantor":
        raise ValueError("the fan rule runs over the truncated binary space")
    if not bar.monotone:
        bar = Bar(space, bar.predicate, monotone=True, inductive=bar.inductive)
    double, model, premise, stages, inner_witness = _forced_premise(bar, FAN_PREMISE, fuel)
    ex = premise.body

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

    transcript = ExtractionTranscript(rule="fan", stages=tuple(stages), output=n, source=bar)
    return n, transcript


def _recheck_fan(transcript: ExtractionTranscript, fuel: int | None = None) -> tuple:
    bar = transcript.source
    space = bar.space
    model, premise, inner_witness, failed = _recheck_premise(transcript, FAN_PREMISE, fuel)
    ex = premise.body

    def uniform(q: int) -> bool:
        return all(v in inner_witness for v in u_bracket(space, (), q))

    def genuine(q: int) -> bool:
        return all(
            v in inner_witness and seq_leq(v, inner_witness[v]) for v in u_bracket(space, (), q)
        )

    n0 = transcript.stage("uniform-depth")["n0"]
    if not uniform(n0) or any(uniform(q) for q in range(n0)):
        failed.append("uniform-depth")

    # every later stage lists the level-n bracket with its re-read witnesses;
    # n is the least level from n0 on whose witnesses are genuine prefixes
    purification = transcript.stage("purification")
    n = purification["n"]
    level = u_bracket(space, (), n)
    witnesses = tuple((v, inner_witness.get(v)) for v in level)
    if (
        n != transcript.output
        or purification["witnesses"] != witnesses
        or not genuine(n)
        or any(genuine(q) for q in range(n0, n))
        or not all(bar.holds(u) for _, u in witnesses)
    ):
        failed.append("purification")

    discharges = transcript.stage("minimal-point")["discharges"]
    if discharges != tuple((v, Point(v, 0), u) for v, u in witnesses) or not all(
        point.passes_through(v) and classical_truth(model, point, ex.body, env={
            premise.var: (premise.sort, pure_value(point, space.branch)),
            ex.var: (ex.sort, u),
        })
        for v, point, u in discharges
    ):
        failed.append("minimal-point")

    conclusions = transcript.stage("monotone-step")["conclusions"]
    if conclusions != witnesses or not all(bar.holds(v) for v, _ in conclusions):
        failed.append("monotone-step")

    cross = transcript.stage("cross-check")
    if (
        least_uniform_depth(bar) != cross["brute"]
        or space.topology.cover((), bar_to_sieve(bar)).depth != cross["cover_depth"]
        or n < cross["brute"]
        or not all(bar.holds(v) for v in level)
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
    _, _, _, stages, inner_witness = _forced_premise(bar, BAR_PREMISE, fuel)

    witnesses = tuple(sorted(inner_witness.items(), key=lambda kv: element_key(kv[0])))
    for v, u in witnesses:
        if not (seq_leq(v, u) and bar.holds(u) and bar.holds(v)):
            raise PremiseNotForced("cover")
    cover = Sieve.from_generators(space.basis, (), tuple(inner_witness))
    stages.append(("cover", {"witnesses": witnesses}))

    try:
        induction = cover_induction(space.system, bar.holds, (), cover)
    except NotACover as err:
        raise PremiseNotForced("cover") from err
    stages.append(("induction", {"transcript": induction}))

    base = frozenset(v for v in space.leaves() if bar.holds(v))
    root_step, trace = inductive_closure_steps(space, base)
    if root_step is None:
        raise HypothesisFails((), None)
    stages.append(("closure-oracle", {"base": base, "root_step": root_step}))

    transcript = ExtractionTranscript(rule="bar", stages=tuple(stages), output=True, source=bar)
    return True, transcript


def _recheck_bar(transcript: ExtractionTranscript, fuel: int | None = None) -> tuple:
    bar = transcript.source
    space = bar.space
    _, _, inner_witness, failed = _recheck_premise(transcript, BAR_PREMISE, fuel)

    witnesses = transcript.stage("cover")["witnesses"]
    cover = Sieve.from_generators(space.basis, (), (v for v, _ in witnesses))
    if (
        witnesses != tuple(sorted(inner_witness.items(), key=lambda kv: element_key(kv[0])))
        or not all(seq_leq(v, u) and bar.holds(u) and bar.holds(v) for v, u in witnesses)
        or frozenset(v for v, _ in witnesses) != cover.members
    ):
        failed.append("cover")

    induction = transcript.stage("induction")["transcript"]
    if not recheck_cover_induction(induction, space.system, bar.holds, cover):
        failed.append("induction")

    oracle = transcript.stage("closure-oracle")
    base = frozenset(v for v in space.leaves() if bar.holds(v))
    step, _ = inductive_closure_steps(space, base)
    if oracle["base"] != base or step != oracle["root_step"] or step is None:
        failed.append("closure-oracle")
    return tuple(failed)


# --------------------------------------------------------- continuity rule


def _agreement(rows) -> int:
    """Length of the longest prefix shared by every row; the rows are
    tuples of one length, so the lexicographic least and greatest decide it."""
    low, high = min(rows), max(rows)
    n = 0
    while n < len(low) and low[n] == high[n]:
        n += 1
    return n


def _least_moduli(points, images, depth: int) -> dict:
    """Least modulus of every ``(alpha, k)``, ``k <= depth``, in one pass.

    The modulus is the least ``m <= depth + 1`` at which every point
    sharing alpha's m-prefix has an image sharing the k-prefix of alpha's
    image, or ``None`` when there is none.  The points are grouped by
    their m-prefix once per m; a group pins down exactly the k-prefixes up
    to the length its images all agree on, which only grows with m.
    """
    windows = {q: q.prefix_of(depth + 1) for q in points}
    outputs = {q: images[q].prefix_of(depth) for q in points}
    least: dict = {}
    pinned = dict.fromkeys(points, -1)
    for m in range(depth + 2):
        buckets: dict = {}
        for q in points:
            buckets.setdefault(windows[q][:m], []).append(q)
        for members in buckets.values():
            agree = _agreement([outputs[q] for q in members])
            for q in members:
                for k in range(pinned[q] + 1, agree + 1):
                    least[(q, k)] = m
                pinned[q] = agree
    return {(alpha, k): least.get((alpha, k)) for alpha in points for k in range(depth + 1)}


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
    points = eventually_constant_points(branch, depth + 1)
    table = dict(rel)
    for q in points:
        if q not in table:
            raise ValueError(f"the table has no value at {q!r}")
    images = {q: table[q] for q in points}
    stages = [("total", {"points": points})]

    modulus = _least_moduli(points, images, depth)
    for (alpha, k), m in modulus.items():
        if m is None:
            raise NoModulus(alpha, k)
    stages.append(("modulus", {"table": dict(modulus)}))

    double, model = _table_model(space, images)
    root = double.d(())
    formula = F.parse_formula(UNIQUE_IMAGE)

    forced, pairs = exists_witness_sieve(model, root, formula, formula, fuel=fuel)
    if not forced:
        rel_atom = F.parse_formula("Rel(pi, b)")
        eq_atom = F.parse_formula("Eq(b, c)")
        candidates = [
            x
            for x in model.universe("SeqN")
            if force(model, root, rel_atom, env={"b": ("SeqN", x)}, fuel=fuel)
        ]
        for i, x in enumerate(candidates):
            for y in candidates[i + 1 :]:
                env = {"b": ("SeqN", x), "c": ("SeqN", y)}
                if not force(model, root, eq_atom, env=env, fuel=fuel):
                    raise NotUnique(x, y)
        raise NotForced("the unique-image premise fails at the root")
    stages.append(("premise", {"formula": str(formula), "root": root}))

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
        rule="continuity", stages=tuple(stages), output=ordered, source=(space, table)
    )
    return graph, modulus, transcript


def _recheck_continuity(transcript: ExtractionTranscript, fuel: int | None = None) -> tuple:
    space, table = transcript.source
    branch, depth = space.branch, space.depth
    failed = []

    points = eventually_constant_points(branch, depth + 1)
    partial = any(q not in table for q in points)
    if partial or transcript.stage("total")["points"] != points:
        failed.append("total")
    if partial:
        # every later stage reads the table at every point
        return tuple(failed)
    images = {q: table[q] for q in points}

    if transcript.stage("modulus")["table"] != _least_moduli(points, images, depth):
        failed.append("modulus")

    double, model = _table_model(space, images)
    formula = F.parse_formula(UNIQUE_IMAGE)
    root = double.d(())
    forced, witnesses = exists_witness_sieve(model, root, formula, formula, fuel=fuel)
    if not forced or transcript.stage("premise") != {"formula": str(formula), "root": root}:
        failed.append("premise")

    # the section is the first witness at the root, re-read from the sieve
    chosen = transcript.stage("section")["value"]
    if chosen != dict(witnesses).get(root):
        failed.append("section")

    pairs = transcript.stage("graph")["pairs"]
    listed = tuple(sorted(points, key=lambda q: q.sort_key))
    if tuple(alpha for alpha, _ in pairs) != listed or not all(
        point_observation(model, observe(model, chosen, alpha), branch)
        == point_observation(model, image, branch)
        == point_observation(model, images[alpha], branch)
        for alpha, image in pairs
    ):
        failed.append("graph")
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
