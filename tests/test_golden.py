"""Golden outputs, by sha256: CLI reports and the seeded random generators.

The CLI digests pin the exact bytes the command line writes, so a refactor
that changes any verdict, witness, transcript or rendering shows up here.
Reports embed their input paths, so every run happens inside a temporary
directory with relative paths.  ``check sheaves`` (about a minute) is left
out.  The generator digests pin what each seeded generator draws, since
the suites and the benchmark corpus are built from those draws.  The
forcing digest pins the step count of every forcing run, so the memo keys,
and with them fuel, cannot move.
"""
import hashlib
import json
import random

import pytest

from sheafbench.cli import main
from sheafbench.double import build_double
from sheafbench.forcing import _Run, _force, standard_model
from sheafbench.points import eventually_constant_points
from sheafbench.randomgen import (
    random_covering_system,
    random_formula,
    random_monotone_bar,
    random_preorder,
)
from sheafbench.spaces import baire_space, bar_from_generators, cantor_space

FILES = {
    "double.json": {"kind": "double", "inner": {"kind": "cantor", "depth": 2}},
    "formula.txt": "exists n:Nat. App(pi, 1, n) & Leq(n, 0)",
    "fan.json": {"space": {"kind": "cantor", "depth": 3},
                 "generators": [[0, 0], [0, 1], [1]]},
    "bar.json": {"space": {"kind": "cantor", "depth": 2}, "generators": [[]],
                 "inductive": True},
    "partial.json": {"space": {"kind": "cantor", "depth": 2}, "generators": [[0]],
                     "inductive": True},
    "rel.json": {"space": {"kind": "baire", "branch": 2, "depth": 2},
                 "builtin": "shift"},
}

# name -> (argv, exit status, sha256 of the --out report, sha256 of stdout)
GOLDEN = {
    "force-root": (
        ["force", "--space", "double.json", "--formula", "formula.txt", "--at", "D()"], 1,
        "f0669c08955c5ce1e8129d24f124a3cef87eb1274e0ad7b318d4549f56ccbdfc",
        "0630974f8daf162d2f84ec08532414b7084c2f816dc511f4d453d5c4510571b4",
    ),
    "force-singleton": (
        ["force", "--space", "double.json", "--formula", "formula.txt", "--at", "{1|0}"], 0,
        "aa680691ee2a9b53d0cf5d2d01c7b9a47e244d81e22f1f0b0ae632c81b40c007",
        "d384ce8a6f996cc1c0bed8583543fb7018f57f806fad6643adf2d641a4cd82cb",
    ),
    "fan": (
        ["fan", "--bar", "fan.json"], 0,
        "f106d1dfb1db6c97003c826cd1c5944dc20036ab3060e1cb005b7d19a7d87344",
        "04037b95204260ab90b09b1145c8cd360972af439462e051b5ebfa89cb45475a",
    ),
    "fan-fuel": (
        ["fan", "--bar", "fan.json", "--fuel", "5"], 1,
        "b2a2e23936fabcee32236c043cbaf2f80eb4a223dc317da8517f6632233734a4",
        "b462a8b8c8d935350612074c51cc9300cf87af53a28249ccc5711144ef362103",
    ),
    "fan-missing": (
        ["fan", "--bar", "missing.json"], 2,
        "c4f3482eeebc5020b811332aefaae947d57625a6635744a9489ac3d998743dda",
        "769f422d53be082d726bb1f7c2270956ed283cf16e92b07d7855579121154236",
    ),
    "bar": (
        ["bar", "--bar", "bar.json"], 0,
        "92fb6888153ec7d4bbe9cac9374d64a21ab53e20f66e68771fd668f870b7c940",
        "d4263ff195f782cb3b8be2e95f67c18dd7cbbcb77022addb3cadfcb515c0c891",
    ),
    "bar-partial": (
        ["bar", "--bar", "partial.json"], 1,
        "b1f37b07fff3fefb666a52683b6747af37787216323bbe4b4f0196fd0f01be0a",
        "1f3a915b62c2fb8ba8a7a842f5bdb3590aefcdb7e6b88269a84a7c285cbd8f96",
    ),
    "continuity": (
        ["continuity", "--rel", "rel.json"], 0,
        "3018e8b798e1b4f3d25848b788380a1b4da948cc6c0ed8bd136e29635c816795",
        "c157b4f244716c7c9ad91dca935ca7fe54198e38a260bffc856ce4ce7ed50d65",
    ),
    "check-topology": (
        ["check", "topology", "--seed", "5", "--samples", "5"], 0,
        "f1f755c56b94922ec8ab2c38dbe2e89399af11c48258ec3eea2c31ddf09811e2",
        "8123bcc03c2c90f5fbbc8ac9aac3b2b1e27743774f7f2583fe365c9568837b8b",
    ),
    "check-forcing": (
        ["check", "forcing", "--seed", "5", "--samples", "5"], 0,
        "66078e3185559307c40bbd08eb8aa1ce171052120dbcb3df9f6e53b7aa1e40f8",
        "e42380ccc19e7ee54e0804a7d7ac0e58ef03ee7b83d91f79a8782592af1385a1",
    ),
    "check-alt-baire": (
        ["check", "alt-baire"], 0,
        "e36fee3c84200ac4db8e2889e1822063da116b9077bdeb647f04ba5713ff296c",
        "a004824935c56e4eb632decf59ad902104a2b265b278615bd409478341a3ba7b",
    ),
    "check-brouwer": (
        ["check", "brouwer"], 0,
        "8dc37a5867e5d035286e7be4e3940f42597db25ae8008b10049a19a28b8c398a",
        "18959041f781f5ccac8fd9f07bc4db8150308b1cdb405503f9ee97d11b4bab9b",
    ),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_report_matches_its_golden_digest(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for path, data in FILES.items():
        text = data if isinstance(data, str) else json.dumps(data)
        (tmp_path / path).write_text(text, encoding="utf-8")
    argv, status, report_sha, stdout_sha = GOLDEN[name]
    assert main(argv + ["--out", "report.json"]) == status
    stdout = capsys.readouterr().out
    assert (_sha((tmp_path / "report.json").read_bytes()), _sha(stdout.encode())) == (
        report_sha, stdout_sha)


def _formulas() -> list:
    rng = random.Random(11)
    return [str(random_formula(rng, rng.randint(0, 4), n_max=rng.choice((2, 8))))
            for _ in range(2000)]


def _covering_systems() -> list:
    rng = random.Random(12)
    out = []
    for _ in range(400):
        basis = random_preorder(rng, rng.randint(1, 8))
        system = random_covering_system(rng, basis)
        out.append(repr([
            (a, [b for b in basis.elements if basis.leq(a, b)], system.families_at(a))
            for a in basis.elements
        ]))
    return out


def _bars() -> list:
    rng = random.Random(13)
    spaces: dict = {}
    out = []
    for _ in range(80):
        key = (rng.choice((2, 3, "cantor")), rng.randint(1, 4))
        if key not in spaces:
            branch, depth = key
            spaces[key] = cantor_space(depth) if branch == "cantor" else baire_space(branch, depth)
        space = spaces[key]
        bar = random_monotone_bar(rng, space)
        out.append(repr((key, [u for u in space.basis.elements if bar.holds(u)])))
    return out


GENERATORS = {
    "formulas": (
        _formulas,
        "dfefe0d2a2eed7c385163dc73c1b7e5d7e6abc5a22b6c98ab9ead5cb069e34be",
    ),
    "covering-systems": (
        _covering_systems,
        "b438dc9e1638823dc77d147cdd33e4d0ead0fb7c826fda6b811315f3c3a7069c",
    ),
    "bars": (
        _bars,
        "e70851b2bdffd27a99523cbc998788748eed4c60e5fc0fb8dd319c7c89fb30be",
    ),
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_seeded_generator_output_matches_its_golden_digest(name):
    draw, digest = GENERATORS[name]
    assert _sha("\n".join(draw()).encode()) == digest


def test_forcing_step_counts_match_their_golden_digest():
    """Verdict and ``_Run.steps`` of 200 seeded formulas at all 19 stages of
    the depth-3 Cantor double over the points with prefix at most 1."""
    inner = cantor_space(3)
    double = build_double(inner, eventually_constant_points(2, 1))
    bar = bar_from_generators(inner, [u for u in inner.basis.elements if len(u) == 2])
    model = standard_model(double, bar=bar, n_max=8)
    assert len(double.basis) == 19
    rng = random.Random(17)
    lines = []
    for _ in range(200):
        formula = random_formula(rng, rng.randint(1, 3), n_max=8)
        for stage in double.basis.elements:
            run = _Run(model, None)
            verdict = _force(run, stage, formula, {})
            lines.append(f"{formula}\t{stage!r}\t{verdict}\t{run.steps}")
    assert _sha("\n".join(lines).encode()) == (
        "eecaa98965ed83ea98f647d97934f4c504e6b74487311c9ee242409b2264b22d")
