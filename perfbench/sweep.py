"""Informational depth sweep of the three extraction rules, and source size.

    python3 perfbench/sweep.py [--cap SECONDS]

For each rule the truncation depth grows until one depth takes longer than
``--cap`` seconds (rule plus recheck), which is then recorded as capped, or
until the rule fails, which is recorded with its error.
Each depth runs in its own process, killed at the cap.  Inputs are fixed:
the fan rule on the level-d bar of Cantor(d), the bar rule on the inductive
bar of Baire(2, d), and the continuity rule on the shift table of
Baire(2, d).  The result, with the line count of ``src/``, is written to
``perfbench/out/sweep.json``.  Nothing here is a gate.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEPTHS = {"fan": range(2, 12), "bar": range(2, 12), "continuity": range(1, 8)}


def src_lines() -> int:
    """Lines of the package's Python sources."""
    total = 0
    package = os.path.join(ROOT, "src", "sheafbench")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as handle:
                total += sum(1 for _ in handle)
    return total


def one(rule: str, depth: int) -> dict:
    """Time one rule at one depth: extraction, then transcript recheck."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from sheafbench import rules
    from sheafbench.jsonio import rel_from_json
    from sheafbench.spaces import Bar, baire_space, bar_from_generators, cantor_space

    if rule == "fan":
        space = cantor_space(depth)
        level = [u for u in space.basis.elements if len(u) == depth]
        start = perf_counter()
        _, transcript = rules.fan_rule(bar_from_generators(space, level))
    elif rule == "bar":
        space = baire_space(2, depth)
        start = perf_counter()
        _, transcript = rules.bar_rule(Bar(space, lambda u: True, inductive=True))
    else:
        doc = {"space": {"kind": "baire", "branch": 2, "depth": depth}, "builtin": "shift"}
        space, table = rel_from_json(doc)
        start = perf_counter()
        _, _, transcript = rules.continuity_rule(table, space)
    middle = perf_counter()
    failed = rules.recheck_transcript(transcript)
    end = perf_counter()
    if failed:
        raise SystemExit(f"{rule} at depth {depth}: recheck failed at {failed}")
    return {"depth": depth, "rule_s": middle - start, "recheck_s": end - middle}


def sweep(cap: float) -> dict:
    out = {}
    for rule, depths in DEPTHS.items():
        rows = []
        for depth in depths:
            try:
                done = subprocess.run(
                    [sys.executable, os.path.abspath(__file__), "--one", rule, str(depth)],
                    capture_output=True, text=True, timeout=cap, check=True,
                )
            except subprocess.TimeoutExpired:
                rows.append({"depth": depth, "capped_at_s": cap})
                break
            except subprocess.CalledProcessError as err:
                rows.append({"depth": depth, "error": err.stderr.strip().splitlines()[-1]})
                break
            row = json.loads(done.stdout.splitlines()[-1])
            rows.append(row)
            print(rule, row, flush=True)
            if row["rule_s"] + row["recheck_s"] > cap:
                break
        out[rule] = rows
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cap", type=float, default=20.0, help="seconds per depth")
    parser.add_argument("--one", nargs=2, metavar=("RULE", "DEPTH"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one:
        print(json.dumps(one(args.one[0], int(args.one[1]))))
        return 0
    result = {"cap_s": args.cap, "src_lines": src_lines(), "sweep": sweep(args.cap)}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "sweep.json"), "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
