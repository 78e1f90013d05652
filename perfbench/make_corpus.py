"""Regenerate the committed corpora under ``perfbench/corpus``.

    python3 perfbench/make_corpus.py [extract|force-many|sheaf-laws|site-build ...]

Each corpus lists candidate inputs sorted by cost: work, the total number
of traced calls (see ``tracer.LAYERS``) one op makes, or for force-many a
measured time; workloads cut the sorted list into bins of similar cost.  The extract corpus also records
the sha256 of every command-line report, which the benchmark compares on
each run.  Regenerating it accepts the current report bytes as correct, so
do it only when the benchmark's inputs change, never to absorb a change in
the program's output.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
os.chdir(ROOT)

import workloads as W  # noqa: E402
from tracer import Tracer  # noqa: E402
from sheafbench.points import eventually_constant_points  # noqa: E402
from sheafbench.randomgen import random_formula, random_monotone_bar  # noqa: E402
from sheafbench.spaces import baire_space, cantor_space  # noqa: E402


def work_of(run) -> tuple:
    """(total traced calls, result) of one call of ``run``."""
    tracer = Tracer()
    with tracer.installed():
        result = run()
    return sum(tracer.calls.values()), result


def minimal_generators(space, bar) -> list:
    return [list(u) for u in space.basis.elements
            if bar.holds(u) and (not u or not bar.holds(u[:-1]))]


def fan_doc(rng, depth: int, gens_window=None) -> dict:
    space = cantor_space(depth)
    while True:
        gens = minimal_generators(space, random_monotone_bar(rng, space))
        if gens_window is None or gens_window[0] <= len(gens) <= gens_window[1]:
            return {"space": {"kind": "cantor", "depth": depth}, "generators": gens}


def bar_doc(depth: int, form: str) -> dict:
    """The inductive bar on Baire(2, depth), as a member list or a generator.

    A monotone bar on a truncated tree holds on every leaf, so an inductive
    one holds everywhere: each depth has one such bar, in two spellings.
    """
    space = {"kind": "baire", "branch": 2, "depth": depth}
    if form == "generators":
        return {"space": space, "generators": [[]], "inductive": True}
    members = [list(u) for u in baire_space(2, depth).basis.elements]
    return {"space": space, "members": members, "monotone": True, "inductive": True}


def point_doc(q) -> dict:
    return {"prefix": list(q.prefix), "tail": q.tail}


def continuity_doc(rng, depth: int = 3) -> dict:
    """A continuous table on Baire(2, depth): the image depends on a prefix."""
    points = eventually_constant_points(2, depth + 1)
    m = rng.randint(0, depth)
    images: dict = {}
    table = []
    for q in points:
        key = q.prefix_of(m)
        if key not in images:
            images[key] = rng.choice(points)
        table.append({"from": point_doc(q), "to": point_doc(images[key])})
    return {"space": {"kind": "baire", "branch": 2, "depth": depth}, "table": table}


# (name prefix, command, count, generator).  The op percentiles land inside
# tight clusters: the costliest quarter is the depth-5 and depth-6 fans and a
# third of the depth-4 ones, the median falls among the light ops.  Depth-4
# and depth-6 bars keep a window of minimal generators, which keeps their
# extraction cost within about 1.5x.
EXTRACT_PLAN = (
    ("fan-d2", "fan", 4, lambda rng: fan_doc(rng, 2)),
    ("fan-d3", "fan", 8, lambda rng: fan_doc(rng, 3)),
    ("fan-d4", "fan", 12, lambda rng: fan_doc(rng, 4, (6, 10))),
    ("fan-d5", "fan", 8, lambda rng: fan_doc(rng, 5)),
    ("fan-d6", "fan", 4, lambda rng: fan_doc(rng, 6, (20, 30))),
    ("bar-d4-members", "bar", 1, lambda rng: bar_doc(4, "members")),
    ("bar-d4-generators", "bar", 1, lambda rng: bar_doc(4, "generators")),
    ("bar-d5-members", "bar", 1, lambda rng: bar_doc(5, "members")),
    ("bar-d5-generators", "bar", 1, lambda rng: bar_doc(5, "generators")),
    ("cont-d3", "continuity", 24, lambda rng: continuity_doc(rng)),
)


def make_extract() -> list:
    os.makedirs(W.EXTRACT_DIR, exist_ok=True)
    rows = []
    for prefix, command, count, make in EXTRACT_PLAN:
        for i in range(count):
            name = f"{prefix}-{i:02d}"
            entry = {"name": name, "command": command,
                     "doc": make(random.Random(f"corpus/{name}"))}
            W.write_extract_input(entry)
            work, code = work_of(lambda: W.run_cli(W.extract_argv(entry)))
            with open(W.EXTRACT_OUT, "rb") as handle:
                entry["report_sha256"] = hashlib.sha256(handle.read()).hexdigest()
            if not W.check_extract(entry, code):
                raise SystemExit(f"{name}: the oracle rejects the report")
            entry["work"] = work
            rows.append(entry)
            print(name, work, flush=True)
    return rows


def make_force_many(count: int = 1000, dropped: int = 10) -> list:
    """``count`` random formulas less the ``dropped`` costliest, by time.

    Call counts track this op's time poorly (hashing and atoms cost per call
    varies by formula), so the corpus is ordered by ``cost_s``, the faster of
    two untraced timings on the machine that made it.  The costliest 1% are
    left out: they range over a factor of 4 and a cycle draws one of them, so
    that draw alone moved a run's throughput by tens of percent from seed to
    seed.
    """
    double, model = W.force_model()
    rows = []
    for i in range(count):
        rng = random.Random(f"corpus/force-many/{i}")
        text = str(random_formula(rng, rng.randint(1, 4), n_max=8))
        work, (_, agree) = work_of(lambda: W.force_everywhere(double, model, text))
        if not agree:
            raise SystemExit(f"forcing disagrees with truth on {text}")
        timings = []
        for _ in range(2):
            start = perf_counter()
            W.force_everywhere(double, model, text)
            timings.append(perf_counter() - start)
        rows.append({"text": text, "work": work, "cost_s": round(min(timings), 6)})
    rows.sort(key=lambda row: row["cost_s"])
    return rows[:count - dropped]


def make_sheaf_laws() -> list:
    spaces = W.sheaf_spaces()
    rows = []
    for (space_label, sheaf_label, level), elements in W.sheaf_strata(spaces).items():
        _, run, _ = W.sheaf_op(spaces[space_label], space_label, sheaf_label, elements[0])
        work, _ = work_of(run)
        rows.append({"stratum": [space_label, sheaf_label, level], "work": work})
    return rows


def make_site_build(count: int = 400, dropped: int = 4) -> list:
    """Random covering systems on 6 to 9 elements, less the costliest 1%.

    As with formulas, the costliest few would decide a cycle's time.
    """
    rows = []
    for index in range(count):
        size = 6 + index % 4
        basis, system = W.covering_system(index, size)
        _, run, check = W.axioms_op(str(index), basis, system)
        work, report = work_of(run)
        if not check(report):
            raise SystemExit(f"covering system {index} fails the topology axioms")
        rows.append({"index": index, "size": size, "work": work})
    rows.sort(key=lambda row: row["work"])
    return rows[:count - dropped]


MAKERS = {
    "extract": ("extract.json", make_extract),
    "force-many": ("force_many.json", make_force_many),
    "sheaf-laws": ("sheaf_laws.json", make_sheaf_laws),
    "site-build": ("site_build.json", make_site_build),
}


def main(names) -> None:
    os.makedirs(W.CORPUS, exist_ok=True)
    for name in names or MAKERS:
        filename, make = MAKERS[name]
        rows = sorted(make(), key=lambda row: (row.get("cost_s", 0), row["work"],
                                               json.dumps(row, sort_keys=True)))
        with open(os.path.join(W.CORPUS, filename), "w", encoding="utf-8") as handle:
            json.dump(rows, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {filename}: {len(rows)} entries", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
