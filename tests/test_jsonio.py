"""Input parsing and canonical report serialization."""
import json

import pytest

from sheafbench.double import DOpen, DoubleSpace, SingletonOpen
from sheafbench.jsonio import (
    MAX_ELEMENTS,
    InputError,
    bar_from_json,
    dump_report,
    jsonable,
    load_json,
    parse_element,
    rel_from_json,
    space_from_json,
    witness_block,
)
from sheafbench.points import Point
from sheafbench.rules import ExtractionTranscript
from sheafbench.spaces import cantor_space


def test_space_kinds_build_the_expected_bases():
    cantor = space_from_json({"kind": "cantor", "depth": 2})
    assert (cantor.branch, cantor.depth) == (2, 2)
    assert len(cantor.basis.elements) == 7

    baire = space_from_json({"kind": "baire", "branch": 3, "depth": 2})
    assert (baire.branch, baire.depth) == (3, 2)
    assert len(baire.basis.elements) == 13

    double = space_from_json({"kind": "double", "inner": {"kind": "cantor", "depth": 1}})
    assert isinstance(double, DoubleSpace)
    assert double.d(()) in double.basis.elements


def test_unknown_kind_and_missing_fields_are_input_errors():
    with pytest.raises(InputError):
        space_from_json({"kind": "moebius"})
    with pytest.raises(InputError):
        space_from_json({"kind": "cantor"})


def test_sizes_just_above_the_limit_are_refused_before_building():
    # closed forms: baire(1, d) has d + 1 elements, and a branch-b point
    # family with prefixes up to m has b ** (m + 1) points
    with pytest.raises(InputError, match="more than"):
        space_from_json({"kind": "baire", "branch": 1, "depth": MAX_ELEMENTS})
    with pytest.raises(InputError, match="more than"):
        space_from_json({"kind": "double", "inner": {"kind": "cantor", "depth": 40}})
    rel = {"space": {"kind": "cantor", "depth": 1}, "builtin": "identity"}
    limit = MAX_ELEMENTS.bit_length() - 2  # 2 ** (limit + 1) == MAX_ELEMENTS
    _, table = rel_from_json(dict(rel, max_prefix=limit))
    assert len(table) == MAX_ELEMENTS
    with pytest.raises(InputError, match="more than"):
        rel_from_json(dict(rel, max_prefix=limit + 1))


def test_bar_from_generators_and_member_lists():
    bar = bar_from_json({"space": {"kind": "cantor", "depth": 2},
                         "generators": [[0]]})
    assert bar.monotone and not bar.inductive
    assert bar.holds((0,)) and bar.holds((0, 1)) and not bar.holds((1,))

    explicit = bar_from_json({"space": {"kind": "cantor", "depth": 2},
                              "members": [[0], [0, 0], [0, 1]],
                              "monotone": True})
    assert explicit.holds((0, 0)) and not explicit.holds(())


def test_bar_flag_claims_are_verified():
    with pytest.raises(ValueError):
        bar_from_json({"space": {"kind": "cantor", "depth": 2},
                       "members": [[0]], "monotone": True})


def test_inductive_reflag_rejects_non_inductive_generators():
    with pytest.raises(ValueError):
        bar_from_json({"space": {"kind": "baire", "branch": 2, "depth": 2},
                       "generators": [[0, 0], [0, 1]], "inductive": True})


def test_rel_builtins_and_tables():
    space, shift = rel_from_json({"space": {"kind": "baire", "branch": 2, "depth": 2},
                                  "builtin": "shift"})
    assert shift[Point((1, 0), 1)] == Point((0,), 1)
    assert shift[Point((), 0)] == Point((), 0)

    _, const = rel_from_json({"space": {"kind": "baire", "branch": 2, "depth": 2},
                              "builtin": "constant",
                              "value": {"prefix": [1], "tail": 0}})
    assert set(const.values()) == {Point((1,), 0)}

    _, table = rel_from_json({
        "space": {"kind": "cantor", "depth": 1},
        "table": [
            {"from": {"prefix": [], "tail": 0}, "to": {"prefix": [], "tail": 1}},
            {"from": {"prefix": [], "tail": 1}, "to": {"prefix": [], "tail": 0}},
            {"from": {"prefix": [0], "tail": 1}, "to": {"prefix": [], "tail": 1}},
            {"from": {"prefix": [1], "tail": 0}, "to": {"prefix": [], "tail": 0}},
        ],
    })
    assert table[Point((), 0)] == Point((), 1)


def test_point_entries_must_fit_the_branching():
    with pytest.raises(InputError):
        rel_from_json({"space": {"kind": "cantor", "depth": 1},
                       "builtin": "constant", "value": {"prefix": [2], "tail": 0}})


def test_parse_element_covers_all_open_shapes():
    double = space_from_json({"kind": "double", "inner": {"kind": "cantor", "depth": 2}})
    assert parse_element(double, "D(0,1)") == DOpen((0, 1))
    assert parse_element(double, "D()") == DOpen(())
    singleton = parse_element(double, "{0|1}")
    assert isinstance(singleton, SingletonOpen)
    assert singleton.point == Point((0,), 1)

    cantor = cantor_space(2)
    assert parse_element(cantor, "(0,1)") == (0, 1)
    assert parse_element(cantor, "()") == ()
    assert parse_element(cantor, "0,1") == (0, 1)

    with pytest.raises(InputError):
        parse_element(cantor, "(0,1,7)")
    with pytest.raises(InputError):
        parse_element(double, "{0,1|2}")


def test_load_json_reads_files(tmp_path):
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"kind": "cantor", "depth": 1}))
    assert space_from_json(load_json(path)).depth == 1
    with pytest.raises(OSError):
        load_json(tmp_path / "absent.json")


def _shape(obj):
    return json.loads(dump_report(jsonable(obj)))


def test_jsonable_canonicalizes_opens_points_and_sets():
    assert _shape(DOpen((0, 1))) == {"D": [0, 1]}
    assert _shape(SingletonOpen(Point((0,), 1))) == {"singleton": {"prefix": [0], "tail": 1}}
    assert _shape({frozenset({(1,), (0,)})}) == [[[0], [1]]]
    assert _shape({Point((0,), 1): "x"}) == {'{"prefix": [0], "tail": 1}': "x"}


def test_jsonable_renders_transcripts_as_nested_arrays():
    transcript = ExtractionTranscript(
        rule="demo",
        stages=(("first", {"value": (1, 2)}),),
        output=3,
        source=object(),
    )
    got = _shape(transcript)
    assert got["type"] == "ExtractionTranscript"
    assert got["stages"] == [["first", {"value": [1, 2]}]]
    assert "source" not in got


def test_dump_report_is_order_insensitive():
    a = dump_report(jsonable({"b": {1, 3, 2}, "a": Point((), 0)}))
    b = dump_report(jsonable({"a": Point((), 0), "b": {3, 2, 1}}))
    assert a == b
    assert a.endswith("\n")


def test_witness_block_is_the_witnesses_encoded_on_their_own():
    # strings with newlines and indents, and a nested "witnesses" key, do not
    # move the cut
    witnesses = [{"note": "a\n  \"witnesses\": [\n}", "witnesses": [1, {"b": []}]},
                 "\n  \"witnesses\": ", [[], {}]]
    report = jsonable({"command": "fan", "config": {"witnesses": "x\n"},
                       "verdicts": [{"check": "fan"}], "witnesses": witnesses})
    assert witness_block(dump_report(report)) == dump_report(witnesses).rstrip("\n")
