"""Run one sheafbench benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from ``src/`` of the checkout
that holds this file.  With ``--trace 0`` the workload is set up, then
whole cycles of ops run until ``--seconds`` have passed, with further timed
set-ups between ops (their median is ``setup_s``), and the end-to-end
metrics are printed.  With ``--trace 1`` the per-layer metrics come from a
separate pass over the first cycle: the workload is set up and its first
cycle run untraced, then set up afresh under the tracer and run traced, so
both passes start cold and their ratio gives the tracing overhead.
End-to-end numbers never come from a traced pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds run details (cycles, op count, tail percentile, the line count of
``src/``), which are also written to ``perfbench/out/``.  Exit status is 0 when the run completed,
even if ops failed their oracle (``correct`` is then false), and 2 when it
could not run at all.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from time import perf_counter

from sweep import src_lines
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = "perfbench/out"
# Set-up is timed again between ops, whenever set-up so far is less than
# SETUP_SHARE of the run, and at least SETUP_REPS times in all: spread over
# the run, its median sees the same load on the host as the ops do.
SETUP_SHARE = 0.1
SETUP_REPS = 5

# (layer, kind); kind "calls" is an exact count, "self_s" a self time
PER_LAYER = (
    ("site.leq", "calls"), ("site.down", "calls"),
    ("site.sieve_build", "calls"), ("site.sieve_build", "self_s"),
    ("site.sieve_restrict", "calls"), ("site.sieve_restrict", "self_s"),
    ("site.sieve_contains", "calls"), ("site.validate", "self_s"),
    ("site.generated_cover", "calls"), ("site.generated_cover", "self_s"),
    ("site.axioms", "self_s"),
    ("spaces.bracket_cover", "calls"), ("spaces.bracket_cover", "self_s"),
    ("double.cover", "calls"), ("double.cover", "self_s"),
    ("points.passes_through", "calls"),
    ("spaces.build", "self_s"), ("double.build", "self_s"),
    ("forcing.force", "calls"), ("forcing.force", "self_s"),
    ("forcing.witness_sieve", "self_s"), ("forcing.section_members", "calls"),
    ("forcing.classical_truth", "self_s"), ("forcing.model", "self_s"),
    ("formulas.parse", "self_s"),
    ("sheaves.make_section", "calls"), ("sheaves.make_section", "self_s"),
    ("sheaves.restrict_section", "calls"), ("sheaves.restrict", "calls"),
    ("sheaves.sections", "self_s"), ("sheaves.sheaf_check", "self_s"),
    ("rules.fan", "self_s"), ("rules.bar", "self_s"),
    ("rules.continuity", "self_s"), ("rules.recheck", "self_s"),
    ("jsonio.load", "self_s"), ("jsonio.dump", "self_s"), ("cli.main", "self_s"),
)


def prepare():
    """Import the package from this checkout and return the workload table."""
    if not os.path.isfile(os.path.join(ROOT, "src", "sheafbench", "__init__.py")):
        return None
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.chdir(ROOT)
    import workloads
    return workloads.WORKLOADS


def checked(check, result) -> bool:
    try:
        return bool(check(result))
    except Exception as err:  # an oracle that cannot read the result rejects it
        print(f"check raised {type(err).__name__}: {err}", file=sys.stderr)
        return False


def run_ops(ops, times: list, guard=None, before=None) -> int:
    """Run ops in order, appending each op's time; returns the failure count.

    An op fails when it raises or its oracle rejects the result.  ``guard``
    is a context manager factory wrapped around each check; ``before`` is
    called, untimed, before each op.
    """
    failed = 0
    for name, run, check in ops:
        if before is not None:
            before()
        start = perf_counter()
        try:
            result = run()
        except Exception as err:  # counted as a failed op, the run goes on
            times.append(perf_counter() - start)
            print(f"op {name} raised {type(err).__name__}: {err}", file=sys.stderr)
            failed += 1
            continue
        times.append(perf_counter() - start)
        if guard is None:
            ok = checked(check, result)
        else:
            with guard():
                ok = checked(check, result)
        if not ok:
            print(f"op {name} failed its oracle", file=sys.stderr)
            failed += 1
    return failed


def percentile(values: list, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def write_files(files: dict) -> None:
    for path, text in files.items():
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def untraced(setup, tail_pct: int, seed: int, seconds: float):
    setup_times = []

    def set_up():
        begun = perf_counter()
        made = setup(seed)
        setup_times.append(perf_counter() - begun)
        return made

    def keep_up():
        if sum(setup_times) < SETUP_SHARE * (perf_counter() - start):
            set_up()

    cycles, files = set_up()
    write_files(files)
    times: list = []
    failed = 0
    done = 0
    start = perf_counter()
    while True:
        failed += run_ops(cycles[done % len(cycles)], times, before=keep_up)
        done += 1
        elapsed = perf_counter() - start
        # start another cycle only if it would end less than half a cycle
        # past the limit
        if elapsed + 0.5 * elapsed / done >= seconds:
            break
    while len(setup_times) < SETUP_REPS:
        set_up()

    tail = percentile(times, tail_pct)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (tail, "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "ok_frac": (1 - failed / len(times), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    details = {
        "cycles": done, "ops": len(times), "measured_s": elapsed,
        "tail_percentile": tail_pct,
        "ops_beyond_tail": sum(1 for t in times if t > tail),
        "setup_runs": len(setup_times),
    }
    return metrics, len(times), failed, details


def traced(setup, seed: int):
    """Per-layer counts and self times over the first cycle.

    Each pass gets its own set-up, so the traced pass does not find caches
    the untraced pass filled.  Set-up is traced too, so construction work
    shows in its layers.  Counts depend only on the seed.
    """
    cycles, files = setup(seed)
    write_files(files)
    plain: list = []
    run_ops(cycles[0], plain)
    tracer = Tracer()
    timed: list = []
    with tracer.installed():
        cycles, _ = setup(seed)
        failed = run_ops(cycles[0], timed, guard=tracer.paused)

    metrics = {}
    for layer, kind in PER_LAYER:
        if kind == "calls":
            metrics[f"{layer}.calls"] = (tracer.calls[layer], "count")
        else:
            metrics[f"{layer}.self_s"] = (tracer.self_s[layer], "s")
    looked_up = tracer.calls["sheaves.restrict"]
    computed = tracer.calls["sheaves.restrict_section"]
    metrics["sheaves.restrict_hit_ratio"] = (
        1 - computed / looked_up if looked_up else 0.0, "ratio")
    metrics["trace.overhead_frac"] = (sum(timed) / sum(plain) - 1, "ratio")
    details = {"ops": len(timed), "untraced_s": sum(plain), "traced_s": sum(timed)}
    return metrics, len(timed), failed, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = prepare()
    if workloads is None:
        print("no sheafbench package under src/ next to perfbench/", file=sys.stderr)
        return 2
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {', '.join(workloads)}")

    setup, tail_pct = workloads[args.workload]
    if args.trace:
        metrics, attempted, failed, details = traced(setup, args.seed)
    else:
        metrics, attempted, failed, details = untraced(setup, tail_pct, args.seed, args.seconds)

    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               **details, "src_lines": src_lines()}
    os.makedirs(OUT_DIR, exist_ok=True)
    out = f"{OUT_DIR}/{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out, "w", encoding="utf-8") as handle:
        json.dump({"details": details, "metrics": metrics}, handle, indent=1)
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
