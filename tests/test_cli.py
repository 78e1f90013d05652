"""End-to-end command line tests: verdicts, exit codes, reports, determinism."""
import json

import pytest

from sheafbench.cli import main
from sheafbench.jsonio import MAX_ELEMENTS
from sheafbench.points import eventually_constant_points


def _write(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def _cantor(depth):
    return {"kind": "cantor", "depth": depth}


def test_fan_reports_uniform_depth(tmp_path, capsys):
    bar = _write(tmp_path / "bar.json", {
        "space": _cantor(3),
        "generators": [[0, 0], [0, 1], [1, 0], [1, 1]],
    })
    out = tmp_path / "report.json"
    code = main(["fan", "--bar", bar, "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "n=2" in stdout and "PASS" in stdout

    report = json.loads(out.read_text())
    assert sorted(report) == ["command", "config", "verdicts", "witnesses"]
    assert report["command"] == "fan"
    assert "out" not in report["config"]
    verdict = report["verdicts"][0]
    assert verdict["verdict"] == "Holds" and verdict["n"] == 2
    assert verdict["recheck_failures"] == []
    transcript = report["witnesses"][0]
    assert transcript["type"] == "ExtractionTranscript"
    assert all(isinstance(stage, list) for stage in transcript["stages"])


def test_fan_depth_override_rebuilds_the_space(tmp_path):
    bar = _write(tmp_path / "bar.json", {
        "space": _cantor(2),
        "generators": [[0], [1]],
    })
    out = tmp_path / "report.json"
    assert main(["fan", "--bar", bar, "--depth", "4", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["config"]["depth"] == 4
    assert report["verdicts"][0]["n"] == 1


def test_force_falsum_fails_and_tautology_holds(tmp_path, capsys):
    space = _write(tmp_path / "space.json",
                   {"kind": "double", "inner": _cantor(2)})
    falsum = tmp_path / "falsum.txt"
    falsum.write_text("false")
    taut = tmp_path / "taut.txt"
    taut.write_text("false -> false")

    assert main(["force", "--space", space, "--formula", str(falsum)]) == 1
    assert "FailsWithinFuel" in capsys.readouterr().out
    assert main(["force", "--space", space, "--formula", str(taut)]) == 0
    assert "Holds" in capsys.readouterr().out


def test_force_consults_the_bar(tmp_path):
    space = _write(tmp_path / "space.json", _cantor(2))
    formula = tmp_path / "f.txt"
    formula.write_text("forall u : FinSeq . InBar(u)")
    total = _write(tmp_path / "total.json",
                   {"space": _cantor(2), "generators": [[]]})
    partial = _write(tmp_path / "partial.json",
                     {"space": _cantor(2), "generators": [[0]]})

    args = ["force", "--space", space, "--formula", str(formula)]
    assert main(args + ["--bar", total]) == 0
    assert main(args + ["--bar", partial]) == 1


def test_force_at_named_stage(tmp_path, capsys):
    space = _write(tmp_path / "space.json",
                   {"kind": "double", "inner": _cantor(2)})
    formula = tmp_path / "f.txt"
    formula.write_text("Eq(pi, pi)")
    code = main(["force", "--space", space, "--formula", str(formula),
                 "--at", "D(0,1)"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "Holds" in stdout


def test_bar_induction_concludes_only_for_covering_bars(tmp_path):
    total = _write(tmp_path / "total.json",
                   {"space": _cantor(2), "generators": [[]],
                    "inductive": True})
    partial = _write(tmp_path / "partial.json",
                     {"space": _cantor(2), "generators": [[0]],
                      "inductive": True})
    out = tmp_path / "report.json"

    assert main(["bar", "--bar", total]) == 0
    assert main(["bar", "--bar", partial, "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["verdicts"][0]["verdict"] == "Fails"
    assert report["witnesses"][0]["error"] == "PremiseNotForced"


def test_continuity_builtin_shift_yields_a_modulus(tmp_path):
    rel = _write(tmp_path / "rel.json", {
        "space": {"kind": "baire", "branch": 2, "depth": 2},
        "builtin": "shift",
    })
    out = tmp_path / "report.json"
    assert main(["continuity", "--rel", rel, "--out", str(out)]) == 0
    verdict = json.loads(out.read_text())["verdicts"][0]
    assert verdict["verdict"] == "Holds" and verdict["recheck_failures"] == []
    assert verdict["modulus"]
    assert all(k <= 2 and m <= 3 for _alpha, k, m in verdict["modulus"])


def test_continuity_rejects_a_tail_reader(tmp_path):
    # The map that answers with the eventual tail of its argument depends on
    # the whole stream, so no finite modulus exists.
    points = eventually_constant_points(2, 2)
    table = [
        {"from": {"prefix": list(q.prefix), "tail": q.tail},
         "to": {"prefix": [], "tail": q.tail}}
        for q in points
    ]
    rel = _write(tmp_path / "rel.json", {"space": _cantor(1), "table": table})
    out = tmp_path / "report.json"
    assert main(["continuity", "--rel", rel, "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["verdicts"][0]["error"] == "NoModulus"


@pytest.mark.parametrize("command, flag, data", [
    ("fan", "--bar", {"space": _cantor(3), "generators": [[0, 0], [0, 1], [1]]}),
    ("bar", "--bar", {"space": _cantor(2), "generators": [[]], "inductive": True}),
    ("continuity", "--rel", {"space": {"kind": "baire", "branch": 2, "depth": 2},
                             "builtin": "shift"}),
])
def test_stdout_is_the_same_with_and_without_out(tmp_path, capsys, command, flag, data):
    # --out only adds a file: the printed block is cut from the same text
    argv = [command, flag, _write(tmp_path / "input.json", data)]
    assert main(argv) == 0
    alone = capsys.readouterr().out
    assert main(argv + ["--out", str(tmp_path / "report.json")]) == 0
    assert capsys.readouterr().out == alone
    assert '"type": "ExtractionTranscript"' in alone


def test_check_suite_runs_and_reports(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["check", "topology", "--seed", "3", "--samples", "5",
                 "--out", str(out)])
    assert code == 0
    assert "PASS" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["config"]["seed"] == 3 and report["config"]["samples"] == 5
    verdict = report["verdicts"][0]
    assert verdict["check"] == "topology" and verdict["passed"] is True
    assert verdict["checked"] > 0


@pytest.mark.parametrize("suite, sizes", [
    ("fan", ["--samples", "5"]),
    ("bar", ["--samples", "3"]),
    ("continuity", []),
    ("cc", ["--samples", "5"]),
    ("compactness", []),
    ("setcompact", ["--samples", "20"]),
])
def test_check_reaches_the_rule_and_compactness_suites(suite, sizes, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["check", suite, "--seed", "1", *sizes, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "PASS" in captured.out
    assert "Traceback" not in captured.out + captured.err
    verdict = json.loads(out.read_text())["verdicts"][0]
    assert verdict["passed"] is True and verdict["checked"] > 0


def test_unreadable_inputs_exit_2(tmp_path, capsys):
    assert main(["fan", "--bar", str(tmp_path / "missing.json")]) == 2
    assert "InputError" in capsys.readouterr().out

    space = _write(tmp_path / "space.json", _cantor(2))
    formula = tmp_path / "f.txt"
    formula.write_text("false")
    code = main(["force", "--space", space, "--formula", str(formula),
                 "--at", "(0,1,7)"])
    assert code == 2
    assert "InputError" in capsys.readouterr().out

    with pytest.raises(SystemExit):
        main(["check", "not-a-suite"])


@pytest.mark.parametrize("argv", [
    ["check", "topology", "--samples", "0"],
    ["check", "topology", "--samples", "-1"],
    ["check", "topology", "--samples", "many"],
    ["force", "--space", "space.json", "--formula", "f.txt", "--nmax", "0"],
    ["force", "--space", "space.json", "--formula", "f.txt", "--nmax", "-2"],
    *([*command, "--fuel", fuel] for command in (
        ["force", "--space", "space.json", "--formula", "f.txt"],
        ["fan", "--bar", "bar.json"],
        ["bar", "--bar", "bar.json"],
        ["continuity", "--rel", "rel.json"],
    ) for fuel in ("-1", "x")),
], ids=["zero-samples", "negative-samples", "word-samples", "zero-nmax", "negative-nmax",
        *(f"{command}-{fuel}-fuel" for command in ("force", "fan", "bar", "continuity")
          for fuel in ("negative", "word"))])
def test_sizes_below_one_exit_2(argv, capsys):
    # zero samples would print checked=0 ... PASS, a negative nmax would
    # force over an empty Nat sort, and a negative fuel would report
    # FuelExhausted; a fuel of 0 is a budget of no steps, pinned by the
    # bar-fuel-0 golden report
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "--samples" in err or "--nmax" in err or "--fuel" in err
    assert "Traceback" not in err


_BAIRE = {"kind": "baire", "branch": 2, "depth": 2}
_POINT = {"prefix": [], "tail": 0}


@pytest.mark.parametrize("command, document", [
    # spaces are trees or their doubles: an explicit finite order is an unknown
    # kind, so each malformed finite document below is refused on its kind alone
    ("force", {"kind": "finite", "elements": ["a", "b"], "leq": [["zz", "a"]]}),
    ("force", {"kind": "finite", "elements": [[0], [1]]}),
    ("force", {"kind": "cantor", "depth": True}),
    ("force", {"kind": "baire", "branch": 1, "depth": MAX_ELEMENTS}),  # one element too many
    ("force", 5),
    ("force", {"kind": "finite", "elements": ["a"], "leq": 3}),
    ("force", {"kind": "finite", "elements": ["a"], "covers": [1]}),
    ("fan", [1, 2]),
    ("fan", {"space": _cantor(2), "generators": [1]}),
    ("fan", {"space": _cantor(2), "generators": [[5]]}),
    ("fan", {"space": _cantor(2), "members": 7}),
    ("continuity", [1, 2]),
    ("continuity", {"space": _BAIRE, "table": [1]}),
    ("continuity", {"space": _BAIRE, "table": [{"from": {"prefix": 5, "tail": 0}, "to": _POINT}]}),
    ("continuity", {"space": _BAIRE, "builtin": "constant", "value": {"prefix": [], "tail": True}}),
    # bar flags are JSON booleans: a string such as "false" is neither
    ("fan", {"space": _cantor(2), "members": [[0, 0], [0, 1], [1, 0], [1, 1]],
             "monotone": "false"}),
    ("fan", {"space": _cantor(2), "generators": [[0], [1]], "inductive": "false"}),
    ("fan", {"space": _cantor(2), "generators": [[]], "inductive": "true"}),
    ("force", {"kind": "finite", "elements": ["a", "b"], "leq": [["b", "a"]],
               "covers": {"a": [["b"]]}}),
    # a well-formed finite order is refused all the same
    ("force", {"kind": "finite", "elements": ["a", "b"], "leq": [["b", "a"]]}),
], ids=["unknown-leq-element", "list-elements", "boolean-depth", "over-size-limit",
        "number-space", "number-leq", "list-covers", "list-bar", "number-generator",
        "generator-outside-space", "number-members", "list-rel", "number-table-entry",
        "number-point-prefix", "boolean-point-tail", "string-monotone-flag",
        "string-inductive-flag", "string-true-flag", "covering-axiom-violation",
        "finite-kind"])
def test_malformed_spaces_exit_2_without_a_traceback(command, document, tmp_path, capsys):
    path = _write(tmp_path / "input.json", document)
    formula = tmp_path / "f.txt"
    formula.write_text("false")
    argv = {
        "force": ["force", "--space", path, "--formula", str(formula)],
        "fan": ["fan", "--bar", path],
        "continuity": ["continuity", "--rel", path],
    }[command]
    assert main(argv) == 2
    assert "verdict=InputError" in capsys.readouterr().out


def test_reports_are_byte_identical_across_runs(tmp_path, capsys):
    bar = _write(tmp_path / "bar.json",
                 {"space": _cantor(3), "generators": [[0], [1]]})
    first, second = tmp_path / "a.json", tmp_path / "b.json"

    main(["fan", "--bar", bar, "--out", str(first)])
    stdout_first = capsys.readouterr().out
    main(["fan", "--bar", bar, "--out", str(second)])
    stdout_second = capsys.readouterr().out

    assert first.read_bytes() == second.read_bytes()
    assert stdout_first == stdout_second
