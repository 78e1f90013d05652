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


@pytest.mark.parametrize("space", [
    {"kind": "finite", "elements": ["a", "b"], "leq": [["zz", "a"]]},
    {"kind": "finite", "elements": [[0], [1]]},
    {"kind": "cantor", "depth": True},
    {"kind": "baire", "branch": 1, "depth": MAX_ELEMENTS},  # one element too many
], ids=["unknown-leq-element", "list-elements", "boolean-depth", "over-size-limit"])
def test_malformed_spaces_exit_2_without_a_traceback(space, tmp_path, capsys):
    path = _write(tmp_path / "space.json", space)
    formula = tmp_path / "f.txt"
    formula.write_text("false")
    assert main(["force", "--space", path, "--formula", str(formula)]) == 2
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
