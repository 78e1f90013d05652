"""Tests for the rule extraction pipelines."""

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from modulus_oracle import scan_moduli
from sheafbench import rules, suites
from sheafbench.double import DOpen
from sheafbench.points import Point, eventually_constant_points
from sheafbench.randomgen import random_monotone_bar
from sheafbench.rules import (
    NoModulus,
    PremiseNotForced,
    bar_rule,
    continuity_rule,
    fan_rule,
    inductive_closure_steps,
    least_uniform_depth,
    recheck_transcript,
)
from sheafbench.spaces import (
    Bar,
    NotInductive,
    NotMonotone,
    baire_space,
    cantor_space,
    u_bracket,
)


def _length_bar(space, cutoff):
    return Bar(space, lambda u: len(u) >= cutoff, monotone=True)


# ------------------------------------------------------------------- fan


def test_fan_rule_on_a_uniform_depth_bar():
    space = cantor_space(4)
    n, transcript = fan_rule(_length_bar(space, 3))
    assert n == 3
    assert transcript.output == 3
    assert tuple(name for name, _ in transcript.stages) == (
        "premise",
        "witness-sieve",
        "uniform-depth",
        "purification",
        "minimal-point",
        "monotone-step",
        "cross-check",
    )
    assert recheck_transcript(transcript) == ()


def test_fan_rule_on_a_mixed_bar():
    space = cantor_space(4)
    bar = Bar(space, lambda u: 1 in u or len(u) >= 3, monotone=True)
    n, transcript = fan_rule(bar)
    assert n == 3
    assert recheck_transcript(transcript) == ()
    witnesses = dict(transcript.stage("purification")["witnesses"])
    assert witnesses[(0, 1, 0)] == (0, 1)
    assert witnesses[(0, 0, 0)] == (0, 0, 0)


def test_fan_rule_on_the_trivial_bar():
    space = cantor_space(3)
    n, transcript = fan_rule(Bar(space, lambda u: True, monotone=True))
    assert n == 0
    assert transcript.stage("purification")["witnesses"] == (((), ()),)
    assert recheck_transcript(transcript) == ()


def test_fan_rule_verifies_monotonicity_on_intake():
    space = cantor_space(3)
    sideways = Bar(space, lambda u: len(u) == 2, monotone=False)
    with pytest.raises(NotMonotone):
        fan_rule(sideways)
    with pytest.raises(ValueError):
        fan_rule(Bar(baire_space(2, 3), lambda u: True, monotone=True))


def test_fan_rule_reports_an_unforced_premise():
    space = cantor_space(3)
    one_sided = Bar(space, lambda u: u[:1] == (1,), monotone=True)
    with pytest.raises(PremiseNotForced) as err:
        fan_rule(one_sided)
    assert err.value.stage == "premise"


_CANTOR = {depth: cantor_space(depth) for depth in range(1, 7)}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_CANTOR)), st.integers(0, 2**32 - 1))
def test_fan_rule_matches_brute_force_on_random_bars(depth, seed):
    bar = random_monotone_bar(random.Random(seed), _CANTOR[depth])
    n, transcript = fan_rule(bar)
    assert n == least_uniform_depth(bar)
    assert recheck_transcript(transcript) == ()


def test_fan_recheck_flags_a_tampered_transcript():
    space = cantor_space(3)
    _, transcript = fan_rule(_length_bar(space, 2))
    tampered = dataclasses.replace(transcript, output=transcript.output - 1)
    assert "purification" in recheck_transcript(tampered)


# ------------------------------------------------------------------- bar


def test_inductive_closure_steps_counts_levels():
    space = baire_space(2, 4)
    base = {u for u in space.basis.elements if len(u) >= 2}
    step, trace = inductive_closure_steps(space, base)
    assert step == 2
    assert () in trace[-1]
    assert () not in trace[1] and all(len(u) >= 1 for u in trace[1])
    assert inductive_closure_steps(space, set(space.basis.elements))[0] == 0
    assert inductive_closure_steps(space, set())[0] is None


def test_bar_rule_on_the_closure_of_a_level_bar():
    space = baire_space(2, 4)
    base = {u for u in space.basis.elements if len(u) >= 2}
    closed = inductive_closure_steps(space, base)[1][-1]
    bar = Bar(space, closed.__contains__, monotone=True, inductive=True)
    holds, transcript = bar_rule(bar)
    assert holds is True
    assert recheck_transcript(transcript) == ()
    assert transcript.stage("closure-oracle")["root_step"] == space.depth


def test_bar_rule_on_the_trivial_bar():
    space = baire_space(3, 2)
    holds, transcript = bar_rule(Bar(space, lambda u: True, monotone=True, inductive=True))
    assert holds is True
    assert recheck_transcript(transcript) == ()


def test_bar_rule_rejects_a_non_inductive_bar():
    space = baire_space(2, 4)
    raw = Bar(space, lambda u: len(u) >= 2, monotone=True, inductive=False)
    with pytest.raises(NotInductive) as err:
        bar_rule(raw)
    assert err.value.node == (0,)


def test_bar_rule_reports_an_unforced_premise():
    space = baire_space(2, 4)
    escaping = Bar(
        space,
        lambda u: not all(x == 0 for x in u),
        monotone=True,
        inductive=True,
    )
    with pytest.raises(PremiseNotForced):
        bar_rule(escaping)


def test_bar_recheck_flags_a_tampered_transcript():
    space = baire_space(2, 3)
    _, transcript = bar_rule(Bar(space, lambda u: True, monotone=True, inductive=True))
    oracle = transcript.stage("closure-oracle")
    stages = tuple(
        (name, dict(payload, root_step=oracle["root_step"] + 1) if name == "closure-oracle" else payload)
        for name, payload in transcript.stages
    )
    tampered = dataclasses.replace(transcript, stages=stages)
    assert "closure-oracle" in recheck_transcript(tampered)


# ------------------------------------------------------------ continuity


def _shift(q: Point) -> Point:
    return Point(q.prefix[1:], q.tail)


def test_continuity_rule_extracts_the_shift():
    space = baire_space(2, 3)
    points = eventually_constant_points(2, 4)
    rel = {q: _shift(q) for q in points}
    f, modulus, transcript = continuity_rule(rel, space)
    assert f == rel
    for alpha in points:
        assert modulus[(alpha, 0)] == 0
        for k in range(1, space.depth + 1):
            assert modulus[(alpha, k)] == k + 1
    assert transcript.stage("section")["value"].kind == "table"
    assert recheck_transcript(transcript) == ()


def test_continuity_rule_extracts_the_identity_as_the_generic():
    space = baire_space(2, 3)
    points = eventually_constant_points(2, 4)
    f, modulus, transcript = continuity_rule({q: q for q in points}, space)
    assert f == {q: q for q in points}
    assert transcript.stage("section")["value"].kind == "generic"
    for alpha in points:
        for k in range(space.depth + 1):
            assert modulus[(alpha, k)] == k
    assert recheck_transcript(transcript) == ()


def test_continuity_rule_extracts_a_constant_as_a_pure_section():
    space = baire_space(2, 3)
    points = eventually_constant_points(2, 4)
    target = Point((1, 1), 0)
    f, modulus, transcript = continuity_rule({q: target for q in points}, space)
    section = transcript.stage("section")["value"]
    assert section.kind == "pure"
    assert all(modulus[(alpha, k)] == 0 for alpha in points for k in range(space.depth + 1))
    assert set(f.values()) == {target}
    assert recheck_transcript(transcript) == ()


def test_continuity_rule_rejects_a_tail_reading_table():
    space = baire_space(2, 3)
    points = eventually_constant_points(2, 4)
    rel = {q: Point((), q.tail) for q in points}
    with pytest.raises(NoModulus) as err:
        continuity_rule(rel, space)
    assert err.value.k >= 1


def test_continuity_rule_requires_a_total_table():
    space = baire_space(2, 2)
    points = eventually_constant_points(2, 3)
    rel = {q: q for q in points[1:]}
    with pytest.raises(ValueError, match="no value"):
        continuity_rule(rel, space)


def test_continuity_recheck_flags_a_tampered_graph():
    space = baire_space(2, 2)
    points = eventually_constant_points(2, 3)
    f, _, transcript = continuity_rule({q: q for q in points}, space)
    pairs = transcript.stage("graph")["pairs"]
    swapped = (((pairs[0][0], Point((1, 1), 0)),) + pairs[1:])
    stages = tuple(
        (name, dict(payload, pairs=swapped) if name == "graph" else payload)
        for name, payload in transcript.stages
    )
    tampered = dataclasses.replace(transcript, stages=stages)
    assert "graph" in recheck_transcript(tampered)


# Cantor(1-4), Baire(2, <= 4) and Baire(3, <= 3); a table's moduli read only
# the branching and the depth of its space
MODULUS_SPACES = (
    [cantor_space(d) for d in range(1, 5)]
    + [baire_space(2, d) for d in range(1, 5)]
    + [baire_space(3, d) for d in range(1, 4)]
)


def _named_tables(points):
    return {
        "identity": {q: q for q in points},
        "shift": {q: _shift(q) for q in points},
        "constant": {q: Point((1,), 0) for q in points},
        # every stream collapses onto the constant-0 stream of its first entry
        "collapse": {q: Point(q.prefix_of(1), 0) for q in points},
    }


def _assert_least_moduli_match_the_scan(space, table):
    depth = space.depth
    points = eventually_constant_points(space.branch, depth + 1)
    got = rules._least_moduli(points, table, depth)
    scanned = scan_moduli(points, table, depth)
    # the same table, listed in the same order
    assert list(got.items()) == list(scanned.items())
    for (alpha, k), m in got.items():
        assert suites._modulus_is_valid(points, table, alpha, k, m)
        assert m == 0 or not suites._modulus_is_valid(points, table, alpha, k, m - 1)


@pytest.mark.parametrize("space", MODULUS_SPACES, ids=lambda s: f"{s.kind}{s.branch}-{s.depth}")
@pytest.mark.parametrize("name", ["identity", "shift", "constant", "collapse"])
def test_least_moduli_of_named_tables_match_the_scan(space, name):
    points = eventually_constant_points(space.branch, space.depth + 1)
    _assert_least_moduli_match_the_scan(space, _named_tables(points)[name])


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(MODULUS_SPACES), st.integers(0, 2**32 - 1))
def test_least_moduli_of_random_continuous_tables_match_the_scan(space, seed):
    points = eventually_constant_points(space.branch, space.depth + 1)
    table = suites._random_continuous_table(random.Random(seed), points, space.depth)
    _assert_least_moduli_match_the_scan(space, table)


@pytest.mark.parametrize("space", [cantor_space(2), baire_space(2, 3), baire_space(3, 2)],
                         ids=lambda s: f"{s.kind}{s.branch}-{s.depth}")
def test_discontinuous_tables_fail_at_the_scans_first_missing_modulus(space):
    points = eventually_constant_points(space.branch, space.depth + 1)
    for label, table in suites._discontinuous_tables(points):
        scanned = scan_moduli(points, table, space.depth)
        first = next(key for key, m in scanned.items() if m is None)
        with pytest.raises(NoModulus) as err:
            continuity_rule(table, space)
        assert (err.value.point, err.value.k) == first, label


def test_moduli_ask_each_point_for_its_prefixes_a_bounded_number_of_times(monkeypatch):
    # the point-by-point scan asks O(P^2 d^2) prefixes of P points at depth
    # d; the whole rule and its recheck must stay within 2 (d + 2) P
    depth = 3
    space = baire_space(3, depth)
    points = eventually_constant_points(3, depth + 1)
    calls = []
    original = Point.prefix_of

    def counting(self, length):
        calls.append(length)
        return original(self, length)

    monkeypatch.setattr(Point, "prefix_of", counting)
    for table in ({q: q for q in points}, {q: _shift(q) for q in points}):
        calls.clear()
        _, _, transcript = continuity_rule(table, space)
        assert recheck_transcript(transcript) == ()
        assert len(calls) <= 2 * (depth + 2) * len(points)


# --------------------------------------------------------------- recheck


def _fan_transcript():
    bar = Bar(cantor_space(3), lambda u: 1 in u or len(u) >= 2, monotone=True)
    return fan_rule(bar)[1]


def _bar_transcript():
    return bar_rule(Bar(baire_space(2, 3), lambda u: True, monotone=True, inductive=True))[1]


def _continuity_transcript():
    table = {q: _shift(q) for q in eventually_constant_points(2, 3)}
    return continuity_rule(table, baire_space(2, 2))[2]


def _retouched(transcript, stage, **fields):
    stages = tuple(
        (name, dict(payload, **fields) if name == stage else payload)
        for name, payload in transcript.stages
    )
    return dataclasses.replace(transcript, stages=stages)


@pytest.mark.parametrize(
    "made, stage, fields",
    [
        (_fan_transcript, "premise", {"formula": "false"}),
        (_fan_transcript, "premise", {"root": DOpen((9,))}),
        (_fan_transcript, "purification", {"witnesses": ()}),
        (_fan_transcript, "minimal-point", {"discharges": ()}),
        (_fan_transcript, "monotone-step", {"conclusions": ()}),
        (_fan_transcript, "cross-check", {"cover_depth": 99}),
        (_bar_transcript, "premise", {"formula": "false"}),
        # the leaves of Baire(2, 3) and one inner node: the root step stays 3
        (_bar_transcript, "closure-oracle",
         {"base": frozenset(itertools.product((0, 1), repeat=3)) | {(0,)}}),
        (_continuity_transcript, "premise", {"formula": "false"}),
        (_continuity_transcript, "modulus", {"table": {}}),
        (_continuity_transcript, "graph", {"pairs": ()}),
    ],
    ids=[
        "fan-premise-formula",
        "fan-premise-root",
        "fan-purification-witnesses",
        "fan-minimal-point-discharges",
        "fan-monotone-step-conclusions",
        "fan-cross-check-cover-depth",
        "bar-premise-formula",
        "bar-closure-oracle-base",
        "continuity-premise-formula",
        "continuity-modulus-table",
        "continuity-graph-pairs",
    ],
)
def test_recheck_reads_every_recorded_field(made, stage, fields):
    transcript = made()
    assert recheck_transcript(transcript) == ()
    assert recheck_transcript(_retouched(transcript, stage, **fields)) == (stage,)


def test_continuity_recheck_reports_a_partial_table_as_not_total():
    transcript = _continuity_transcript()
    space, table = transcript.source
    partial = {q: image for q, image in table.items() if q != Point((), 0)}
    got = recheck_transcript(dataclasses.replace(transcript, source=(space, partial)))
    assert "total" in got


def test_bar_recheck_compares_the_cover_with_the_re_read_witnesses():
    # another genuine prefix in the bar is a valid witness, and the cover's
    # members stay the same: only the re-read witness map tells them apart
    transcript = _bar_transcript()
    *kept, (leaf, _) = transcript.stage("cover")["witnesses"]
    moved = (*kept, (leaf, leaf[:-1]))
    assert recheck_transcript(_retouched(transcript, "cover", witnesses=moved)) == ("cover",)


def test_fan_recheck_wants_the_least_level_of_genuine_witnesses():
    # level 3 also holds genuine prefixes in the bar, but level 2 does first
    transcript = _fan_transcript()
    assert transcript.output == 2
    pairs = transcript.stage("witness-sieve")["pairs"]
    inner = {m.seq: w for m, w in pairs if isinstance(m, DOpen)}
    witnesses = tuple((v, inner[v]) for v in u_bracket(transcript.source.space, (), 3))
    moved = dataclasses.replace(transcript, output=3)
    for stage, fields in (
        ("purification", {"n": 3, "witnesses": witnesses}),
        ("minimal-point", {"discharges": tuple((v, Point(v, 0), u) for v, u in witnesses)}),
        ("monotone-step", {"conclusions": witnesses}),
    ):
        moved = _retouched(moved, stage, **fields)
    assert recheck_transcript(moved) == ("purification",)


def test_each_rule_and_its_recheck_build_a_model_apiece(monkeypatch):
    built = []
    original = rules.standard_model

    def counting(space, **kwargs):
        built.append(space)
        return original(space, **kwargs)

    monkeypatch.setattr(rules, "standard_model", counting)
    for made in (_fan_transcript, _bar_transcript, _continuity_transcript):
        built.clear()
        transcript = made()
        assert len(built) == 1
        assert recheck_transcript(transcript) == ()
        assert len(built) == 2 and built[0] is not built[1]
