"""Golden CLI reports: each command's report and printed text, by sha256.

The digests pin the exact bytes the command line writes, so a refactor that
changes any verdict, witness, transcript or rendering shows up here.  Reports
embed their input paths, so every run happens inside a temporary directory
with relative paths.  ``check sheaves`` (about a minute) is left out.
"""
import hashlib
import json

import pytest

from sheafbench.cli import main

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
