"""The four sheafbench workloads: inputs from a seed, ops, and their oracles.

A workload's ``setup(seed)`` returns ``(cycles, files)``.  A cycle is a list
of ops ``(name, run, check)``: ``run()`` is the timed call into the package
and ``check(result)`` compares its result with an oracle the package already
has, untimed.  ``files`` maps paths to the text of the input files the ops
read; the runner writes them after set-up, outside the timed span, because
file-system time is not the program's.  Every cycle draws one input from
each cost bin of the workload, so each cycle costs about the same whatever
the seed, and the seed only decides which input of each bin runs and in what
order.  An ``extract`` cycle runs its whole corpus.  A ``sheaf-laws`` cycle
runs every element of every (space, sheaf, level) stratum once, except in the
twelve costliest strata, of which it runs one seeded element from each group
of four.

Why these four (also recorded in ``BENCHMARK.json``):

* ``extract`` is the paper's headline path: the fan, bar and continuity rules
  through the command line, each with its transcript recheck.  Its cost sits
  in order, sieve and cover calls over a large double.
* ``force-many`` uses the forcing layer with many distinct small formulas over
  a 19-element basis, so memo lookups, hashing and atoms dominate, not sieves.
* ``sheaf-laws`` runs ``make_section`` and sieve restriction with no forcing.
* ``site-build`` is the construction side: space building, covering-axiom
  validation and generated-cover saturation.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random

from sheafbench import cli
from sheafbench.double import build_double
from sheafbench.forcing import classical_truth, force, standard_model
from sheafbench.formulas import parse_formula
from sheafbench.jsonio import bar_from_json, space_from_json
from sheafbench.points import eventually_constant_points
from sheafbench.randomgen import random_covering_system, random_preorder
from sheafbench.rules import inductive_closure_steps, least_uniform_depth
from sheafbench.sheaves import (
    ConstantPresheaf,
    finseq_sheaf,
    nat_sheaf,
    sheaf_check,
    space_atoms,
    stream_sheaf,
)
from sheafbench.site import FormalSpace, GeneratedTopology, check_topology_axioms
from sheafbench.spaces import baire_space, bar_from_generators, cantor_space

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join(HERE, "corpus")
# Relative to the checkout root, which is the working directory: the CLI
# report embeds the input path, so a stable path keeps report bytes stable.
EXTRACT_DIR = "perfbench/work/extract"
EXTRACT_OUT = f"{EXTRACT_DIR}/report.json"

# Cycles generated up front; a run that needs more starts over at the first,
# whose ops then find the caches of their shared inputs warm.  Eight is two
# more than a 30 s run needs here on the workloads with the shortest cycles.
PLANNED_CYCLES = 8


def load_corpus(name: str):
    with open(os.path.join(CORPUS, name), encoding="utf-8") as handle:
        return json.load(handle)


def cost_bins(items: list, size: int) -> list:
    """Groups of ``size`` from a list sorted by cost, cut from the costly end.

    The costliest inputs dominate a cycle's time, so they get the tightest
    bins; any remainder is the cheapest bin.
    """
    cuts = range(len(items), 0, -size)
    return [items[max(0, end - size):end] for end in cuts]


def draw_cycles(rng: random.Random, bins: list, count: int = PLANNED_CYCLES) -> list:
    """``count`` cycles of one input per bin, each cycle in seeded order.

    Each bin is walked in a seeded order, so consecutive cycles draw
    different inputs from it and a run of as many cycles as the bin holds
    sees all of them.
    """
    walks = [rng.sample(b, len(b)) for b in bins]
    cycles = []
    for index in range(count):
        cycle = [walk[index % len(walk)] for walk in walks]
        rng.shuffle(cycle)
        cycles.append(cycle)
    return cycles


# ------------------------------------------------------------------ extract

EXTRACT_FLAG = {"fan": "--bar", "bar": "--bar", "continuity": "--rel"}


def extract_path(entry: dict) -> str:
    return f"{EXTRACT_DIR}/{entry['name']}.json"


def extract_argv(entry: dict) -> list:
    command = entry["command"]
    return [command, EXTRACT_FLAG[command], extract_path(entry), "--out", EXTRACT_OUT]


def run_cli(argv: list) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def extract_text(entry: dict) -> str:
    return json.dumps(entry["doc"], sort_keys=True)


def write_extract_input(entry: dict) -> None:
    with open(extract_path(entry), "w", encoding="utf-8") as handle:
        handle.write(extract_text(entry))


def check_extract(entry: dict, code: int) -> bool:
    """Report digest, verdict, transcript recheck, and the rule's own oracle."""
    if code != 0:
        return False
    with open(EXTRACT_OUT, "rb") as handle:
        raw = handle.read()
    if hashlib.sha256(raw).hexdigest() != entry["report_sha256"]:
        return False
    verdict = json.loads(raw)["verdicts"][0]
    if verdict["verdict"] != "Holds" or verdict["recheck_failures"] != []:
        return False
    if entry["command"] == "fan":
        return verdict["n"] == least_uniform_depth(bar_from_json(entry["doc"]))
    if entry["command"] == "bar":
        bar = bar_from_json(entry["doc"])
        base = frozenset(v for v in bar.space.leaves() if bar.holds(v))
        step, _ = inductive_closure_steps(bar.space, base)
        stages = dict(json.loads(raw)["witnesses"][0]["stages"])
        return step is not None and stages["closure-oracle"]["root_step"] == step
    return True


def extract_op(entry: dict):
    argv = extract_argv(entry)
    return (entry["name"], lambda: run_cli(argv), lambda code: check_extract(entry, code))


def extract_setup(seed: int) -> tuple:
    # bins of one: every cycle runs the whole corpus, in a seeded order, so a
    # run holds the same inputs whatever number of cycles fits in it
    corpus = load_corpus("extract.json")
    cycles = draw_cycles(random.Random(f"extract/{seed}"), cost_bins(corpus, 1))
    files = {extract_path(entry): extract_text(entry) for entry in corpus}
    return [[extract_op(entry) for entry in cycle] for cycle in cycles], files


# --------------------------------------------------------------- force-many


def force_model():
    """Depth-3 Cantor double over the eventually constant points with prefix
    at most 1, with the level-2 bar behind ``InBar``: 19 basic opens."""
    inner = cantor_space(3)
    double = build_double(inner, eventually_constant_points(2, 1))
    level2 = [u for u in inner.basis.elements if len(u) == 2]
    bar = bar_from_generators(inner, level2)
    return double, standard_model(double, bar=bar, n_max=8)


def force_everywhere(double, model, text: str):
    """Parse, force at every stage, and check singletons against truth."""
    formula = parse_formula(text)
    verdicts = {a: force(model, a, formula) for a in double.basis.elements}
    agree = all(
        verdicts[double.singleton(q)] == classical_truth(model, q, formula)
        for q in double.points
    )
    return formula, agree


def force_op(double, model, text: str):
    return (
        text,
        lambda: force_everywhere(double, model, text),
        lambda result: result[1] and str(result[0]) == text,
    )


def force_many_setup(seed: int) -> tuple:
    corpus = [row["text"] for row in load_corpus("force_many.json")]
    cycles = draw_cycles(random.Random(f"force-many/{seed}"), cost_bins(corpus, 10))
    double, model = force_model()
    return [[force_op(double, model, text) for text in cycle] for cycle in cycles], {}


# --------------------------------------------------------------- sheaf-laws

SHEAF_BUDGET = 512
SHEAF_SIEVE_CAP = 8
# The twelve costliest strata (sections over the roots of the doubles and of
# Cantor and near them) cost 0.3 to 4.5 s an op on a 2-vCPU Xeon virtual
# machine.  A cycle runs one element from each four of them and every element
# of the others, about 580 ops of at most 0.13 s there, so a run holds
# several cycles and its 99th percentile falls among the costliest of those
# light ops, which lie close together, not at a step between strata or
# between elements of one stratum.
SHEAF_HEAVY = 12


def sheaf_spaces() -> dict:
    """The four standard depth-3 spaces of the sheaf suite.

    Their down-sets are filled in here: ops share the spaces, and otherwise
    whichever op first meets an element would pay for its down-set.
    """
    cantor = cantor_space(3)
    baire = baire_space(3, 3)
    spaces = {
        "cantor": cantor,
        "baire": baire,
        "double-cantor": build_double(cantor, eventually_constant_points(2, 1)),
        "double-baire": build_double(baire, eventually_constant_points(3, 1)),
    }
    for space in spaces.values():
        for a in space.basis.elements:
            space.basis.down(a)
    return spaces


def make_presheaf(space, label: str) -> ConstantPresheaf:
    """A fresh value sheaf, so no section or restriction cache is shared."""
    inner = getattr(space, "inner", None) or space
    branch, depth = inner.branch, inner.depth
    if label == "nat":
        return nat_sheaf(space, 2)
    if label == "two":
        return ConstantPresheaf(space, (0, 1), space_atoms(space), label="two")
    if label.startswith("finseq"):
        return finseq_sheaf(space, 2 if label == "finseq2" else branch, depth, label=label)
    return stream_sheaf(space, 2 if label == "seq2" else branch, depth, label=label)


SHEAF_LABELS = ("nat", "two", "finseq2", "seq2", "finseqN", "seqN")


def element_level(x) -> str:
    """Strata key: tree level of an open, or ``pt`` for a point's singleton."""
    seq = x if isinstance(x, tuple) else getattr(x, "seq", None)
    return "pt" if seq is None else str(len(seq))


def sheaf_strata(spaces: dict) -> dict:
    """(space, sheaf, level) -> elements within the section budget.

    Opens of one level are alike, so each stratum's ops cost about the same.
    """
    strata: dict = {}
    for space_label, space in spaces.items():
        for sheaf_label in SHEAF_LABELS:
            presheaf = make_presheaf(space, sheaf_label)
            for a in space.basis.elements:
                if presheaf.section_count(a) <= SHEAF_BUDGET:
                    key = (space_label, sheaf_label, element_level(a))
                    strata.setdefault(key, []).append(a)
    return strata


def sheaf_op(space, space_label: str, sheaf_label: str, a):
    def run():
        return sheaf_check(make_presheaf(space, sheaf_label), elements=(a,),
                           sieve_cap=SHEAF_SIEVE_CAP)

    return (f"{space_label}/{sheaf_label}/{a!r}", run, lambda report: report.ok)


def sheaf_laws_setup(seed: int) -> tuple:
    spaces = sheaf_spaces()
    strata = sheaf_strata(spaces)
    order = [tuple(row["stratum"]) for row in load_corpus("sheaf_laws.json")]
    if set(order) != set(strata):
        raise RuntimeError("sheaf_laws.json does not list the strata of the standard spaces")
    rng = random.Random(f"sheaf-laws/{seed}")
    light = [(key, a) for key in order[:-SHEAF_HEAVY] for a in strata[key]]
    cycles = []
    for heavy in draw_cycles(rng, cost_bins(order[-SHEAF_HEAVY:], 4)):
        picks = light + [(key, rng.choice(strata[key])) for key in heavy]
        rng.shuffle(picks)
        cycles.append([sheaf_op(spaces[space], space, sheaf, a)
                       for (space, sheaf, _), a in picks])
    return cycles, {}


# --------------------------------------------------------------- site-build

# Spaces built from their JSON description once per cycle.
SITE_BUILDS = (
    [{"kind": "cantor", "depth": d} for d in range(4, 9)]
    + [{"kind": "baire", "branch": b, "depth": d}
       for b, d in ((2, 6), (2, 7), (3, 4), (4, 3), (5, 3))]
    + [{"kind": "double", "inner": {"kind": "cantor", "depth": d}, "max_prefix": m}
       for d, m in ((5, 1), (5, 2), (5, 3), (6, 1), (6, 2))]
    + [{"kind": "double", "inner": {"kind": "baire", "branch": 3, "depth": 3},
        "max_prefix": m} for m in (2, 3)]
)
SITE_SIEVE_CAP = 16


def covering_system(index: int, size: int):
    """Random covering system number ``index`` of the site corpus."""
    rng = random.Random(f"corpus/site-build/{index}")
    basis = random_preorder(rng, size)
    return basis, random_covering_system(rng, basis)


def basis_size(doc: dict) -> int:
    """Closed-form basis size of a tree space or a double."""
    if doc["kind"] == "cantor":
        return 2 ** (doc["depth"] + 1) - 1
    if doc["kind"] == "baire":
        b, d = doc["branch"], doc["depth"]
        return (b ** (d + 1) - 1) // (b - 1)
    inner = doc["inner"]
    branch = inner.get("branch", 2)
    # eventually constant points with prefix length <= m: branch ** (m + 1)
    return basis_size(inner) + branch ** (doc["max_prefix"] + 1)


def build_op(doc: dict):
    return (
        json.dumps(doc, sort_keys=True),
        lambda: space_from_json(doc),
        lambda space: len(space.basis) == basis_size(doc),
    )


def axioms_op(name: str, basis, system):
    def run():
        space = FormalSpace(basis, GeneratedTopology(system), system)
        return check_topology_axioms(space, sieve_cap=SITE_SIEVE_CAP)

    return (name, run, lambda report: report.ok)


def site_build_setup(seed: int) -> tuple:
    rng = random.Random(f"site-build/{seed}")
    systems = cost_bins(load_corpus("site_build.json"), 8)
    cycles = []
    for rows in draw_cycles(rng, systems):
        ops = [build_op(doc) for doc in SITE_BUILDS]
        for row in rows:
            basis, system = covering_system(row["index"], row["size"])
            ops.append(axioms_op(f"axioms/{row['index']}", basis, system))
        rng.shuffle(ops)
        cycles.append(ops)
    return cycles, {}


# Workload name -> (setup, tail percentile).  The tail percentile is the
# highest of 50/75/90/99 with at least ten ops beyond it in a run at the
# commit that defined the benchmark; it stays fixed so that a faster
# program, which completes more ops, is not reported at a different rank.
WORKLOADS = {
    "extract": (extract_setup, 75),
    "force-many": (force_many_setup, 90),
    "sheaf-laws": (sheaf_laws_setup, 99),
    "site-build": (site_build_setup, 90),
}
