"""Command line: forcing queries, rule extractions, and check suites.

Every run assembles a report ``{command, config, verdicts, witnesses}``;
``--out`` writes it as canonical JSON.  Reports carry no timing or other
machine state, so a rerun with the same arguments is byte-identical.
Exit status is 0 when every verdict passes, 1 when a check fails or a rule
cannot conclude, and 2 when the inputs cannot be read.
"""
from __future__ import annotations

import argparse
import sys

from . import formulas as F
from . import rules
from .forcing import FuelExhausted, force, standard_model
from .jsonio import InputError, bar_from_json, dump_report, jsonable, load_json, parse_element, rel_from_json, space_from_json
from .suites import CHECK_SUITES

SUITE_NAMES = tuple(CHECK_SUITES)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sheafbench",
        description="forcing, bar/fan/continuity extractions, and self-checks "
        "over truncated tree spaces and their doubles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    force_p = sub.add_parser("force", help="force a formula at a stage")
    force_p.add_argument("--space", required=True, help="space description (JSON file)")
    force_p.add_argument("--formula", required=True, help="file holding one formula")
    force_p.add_argument("--at", help="stage, e.g. 'D(0,1)', '{0|1}', '(0,1)' (default: root)")
    force_p.add_argument("--bar", help="bar description (JSON file) backing InBar")
    force_p.add_argument("--fuel", type=int, help="evaluation budget")
    force_p.add_argument("--nmax", type=int, default=8, help="size of the Nat sort")
    force_p.add_argument("--out", help="write the JSON report here")

    fan_p = sub.add_parser("fan", help="uniform depth of a monotone bar")
    fan_p.add_argument("--bar", required=True, help="bar description (JSON file)")
    fan_p.add_argument("--depth", type=int, help="override the truncation depth")
    fan_p.add_argument("--fuel", type=int, help="evaluation budget")
    fan_p.add_argument("--out", help="write the JSON report here")

    bar_p = sub.add_parser("bar", help="bar induction to the root")
    bar_p.add_argument("--bar", required=True, help="bar description (JSON file)")
    bar_p.add_argument("--depth", type=int, help="override the truncation depth")
    bar_p.add_argument("--fuel", type=int, help="evaluation budget")
    bar_p.add_argument("--out", help="write the JSON report here")

    cont_p = sub.add_parser("continuity", help="choice function with a modulus")
    cont_p.add_argument("--rel", required=True, help="relation table (JSON file)")
    cont_p.add_argument("--space", help="space description overriding the table's")
    cont_p.add_argument("--fuel", type=int, help="evaluation budget")
    cont_p.add_argument("--out", help="write the JSON report here")

    check_p = sub.add_parser("check", help="run a self-check suite")
    check_p.add_argument("suite", choices=SUITE_NAMES)
    check_p.add_argument("--seed", type=int, default=0, help="suite randomness seed")
    check_p.add_argument("--samples", type=int, default=200, help="sample count")
    check_p.add_argument("--out", help="write the JSON report here")

    return parser


def _config(args: argparse.Namespace) -> dict:
    skip = {"command", "out"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _load_bar(args: argparse.Namespace):
    data = load_json(args.bar)
    if args.depth is not None:
        if not isinstance(data, dict) or not isinstance(data.get("space"), dict):
            raise InputError("--depth needs a bar file with an inline space")
        data["space"] = dict(data["space"], depth=args.depth)
    return bar_from_json(data)


def _run_force(args: argparse.Namespace):
    space = space_from_json(load_json(args.space))
    with open(args.formula, encoding="utf-8") as handle:
        text = handle.read().strip()
    formula = F.parse_formula(text)
    bar = bar_from_json(load_json(args.bar)) if args.bar else None
    model = standard_model(space, bar=bar, n_max=args.nmax)
    stage = (
        parse_element(space, args.at)
        if args.at is not None
        else (space.d(()) if hasattr(space, "d") else ())
    )

    try:
        verdict = "Holds" if force(model, stage, formula, fuel=args.fuel) else "FailsWithinFuel"
    except FuelExhausted as err:
        verdict = "FuelExhausted"
        witness = [{"error": type(err).__name__, "detail": str(err)}]
    else:
        witness = []
    verdicts = [{"check": "force", "verdict": verdict,
                 "stage": jsonable(stage), "formula": text}]
    return verdicts, witness, verdict == "Holds"


def _load_rel(args: argparse.Namespace):
    data = load_json(args.rel)
    if args.space is not None:
        if not isinstance(data, dict):
            raise InputError("the relation file must hold an object")
        data = dict(data, space=load_json(args.space))
    return rel_from_json(data)


def _fan(bar, fuel):
    n, transcript = rules.fan_rule(bar, fuel=fuel)
    return transcript, True, {"n": n}


def _bar(bar, fuel):
    concluded, transcript = rules.bar_rule(bar, fuel=fuel)
    return transcript, bool(concluded), {}


def _continuity(rel, fuel):
    space, table = rel
    _f, modulus, transcript = rules.continuity_rule(table, space, fuel=fuel)
    moduli = sorted(
        ([jsonable(alpha), k, m] for (alpha, k), m in modulus.items()),
        key=lambda row: (row[1], str(row[0])),
    )
    return transcript, True, {"modulus": moduli}


# rule subcommand -> (read its input from the arguments, run the rule on it
# and return its transcript, whether it concluded, and extra verdict fields)
_RULES = {
    "fan": (_load_bar, _fan),
    "bar": (_load_bar, _bar),
    "continuity": (_load_rel, _continuity),
}


def _run_rule(args: argparse.Namespace):
    load, extract = _RULES[args.command]
    data = load(args)
    try:
        transcript, concluded, fields = extract(data, args.fuel)
    except FuelExhausted as err:
        return [{"check": args.command, "verdict": "FuelExhausted"}], [jsonable(err)], False
    except ValueError as err:
        return ([{"check": args.command, "verdict": "Fails", "error": type(err).__name__}],
                [jsonable(err)], False)
    failed = rules.recheck_transcript(transcript, fuel=args.fuel)
    ok = concluded and not failed
    verdicts = [{"check": args.command, "verdict": "Holds" if ok else "Fails",
                 "recheck_failures": list(failed), **fields}]
    return verdicts, [jsonable(transcript)], ok


def _run_check(args: argparse.Namespace):
    result = CHECK_SUITES[args.suite](args.seed, args.samples)
    verdicts = [{"check": result.name, "verdict": "Holds" if result.passed else "Fails",
                 "passed": result.passed, "checked": result.checked,
                 "details": jsonable(result.details)}]
    return verdicts, [jsonable(w) for w in result.witnesses], result.passed


_RUNNERS = {"force": _run_force, "check": _run_check, **dict.fromkeys(_RULES, _run_rule)}


def _render(report: dict, ok: bool) -> str:
    lines = [f"sheafbench {report['command']}"]
    for verdict in report["verdicts"]:
        parts = [f"{k}={verdict[k]}" for k in ("check", "verdict") if k in verdict]
        if "n" in verdict:
            parts.append(f"n={verdict['n']}")
        if "checked" in verdict:
            parts.append(f"checked={verdict['checked']}")
        lines.append("  " + " ".join(parts))
    if report["witnesses"] and report["command"] != "check":
        lines.append(dump_report(report["witnesses"]).rstrip("\n"))
    elif report["witnesses"]:
        lines.append(f"  witnesses: {len(report['witnesses'])}")
    lines.append("PASS" if ok else "FAIL")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    report = {"command": args.command, "config": _config(args),
              "verdicts": [], "witnesses": []}
    try:
        verdicts, witnesses, ok = _RUNNERS[args.command](args)
    except (OSError, ValueError) as err:
        report["verdicts"] = [{"check": args.command, "verdict": "InputError",
                               "error": type(err).__name__, "detail": str(err)}]
        text = dump_report(report)
        if getattr(args, "out", None):
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        print(_render(report, False))
        return 2

    report["verdicts"] = verdicts
    report["witnesses"] = witnesses
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(dump_report(report))
    print(_render(report, ok))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
