"""Golden outputs, by sha256: CLI reports and the seeded random generators.

The CLI digests pin the exact bytes the command line writes, so a refactor
that changes any verdict, witness, transcript or rendering shows up here.
Reports embed their input paths, so every run happens inside a temporary
directory with relative paths.  The generator digests pin what each seeded generator draws, since
the suites and the benchmark corpus are built from those draws.  The
forcing digest pins the step count of every forcing run: the number of
distinct (subformula, stage, env) triples its verdict demands, which does
not depend on the order they are evaluated in, so fuel cannot move.
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
# each builtin table of the continuity rule over small tree spaces
TREES = {
    "cantor1": {"kind": "cantor", "depth": 1},
    "cantor2": {"kind": "cantor", "depth": 2},
    "cantor3": {"kind": "cantor", "depth": 3},
    "cantor4": {"kind": "cantor", "depth": 4},
    "baire3-1": {"kind": "baire", "branch": 3, "depth": 1},
    "baire3-2": {"kind": "baire", "branch": 3, "depth": 2},
}
for _tree, _space in TREES.items():
    FILES[f"rel-{_tree}-identity.json"] = {"space": _space, "builtin": "identity"}
    FILES[f"rel-{_tree}-shift.json"] = {"space": _space, "builtin": "shift"}
    FILES[f"rel-{_tree}-constant.json"] = {"space": _space, "builtin": "constant",
                                           "value": {"prefix": [1], "tail": 0}}

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
    "check-sheaves": (
        ["check", "sheaves"], 0,
        "5567edf266df0f72109aca748b751a35447d99f822529acb0593fd2433bb41c0",
        "b4c6d2e3b2e17bd4716fb55050ad5269bdde236300dd4ac5557533bd879dd8be",
    ),
    "check-cc": (
        ["check", "cc", "--seed", "5", "--samples", "5"], 0,
        "68bd21024d1e06785e54aeb1e585acf45b0ae5d458c6965d9befaef64908bf4a",
        "823a6abadd7853d4f4e074aa61556136782fb87e5e287e180be8e67cf112eb97",
    ),
    "check-compactness": (
        ["check", "compactness"], 0,
        "67bfc18637982b7c97b3f70709e2206257a577f8c075d48237631720ab3cb951",
        "c20f7aea1d87f570a9f5da0c2da789edcc23c7d4c3022f43bc3275cf13f52f7a",
    ),
    "check-setcompact": (
        ["check", "setcompact", "--seed", "5", "--samples", "5"], 0,
        "c8ee6d11fcbc9bbdd124518a616eeaf614979f2c4f0fc8d56f56e5ebcfe46442",
        "ae12008aba8a7821466786be33052f0acc43eac54ef94c8904779a1b087562bf",
    ),
    "check-fan": (
        ["check", "fan", "--seed", "5", "--samples", "5"], 0,
        "85fec682674d5d74901a3cc50b912df664fa034aa4956d274e6dc580f65e282b",
        "94d7166161a1ed360caa2397379628b5018cffee1c5b9593462c31736b3a8366",
    ),
    "check-bar": (
        ["check", "bar", "--seed", "5", "--samples", "3"], 0,
        "c0a23eda6a99c21c3a2ea32ed8c3df0c40433ca00fefe5b4eeeec4457824b582",
        "5169e071cbd394564114975aa7d7691f8cecf3323d29e30569ca0b64a34785b2",
    ),
    # Cantor depth 4: identity and shift do not conclude (NotUnique, NotForced)
    # because some stages of the double have no point of the model through
    # them, so a table value there ranges over the whole tree
    "continuity-baire3-1-constant": (
        ["continuity", "--rel", "rel-baire3-1-constant.json"], 0,
        "1c79f4af841d3a1c9ba67d93c80f4653d16c890253690093f437da914b1da221",
        "42a84b95910596cdd3e3f1816e667665a413e3fb58b7646f6e5a4ad318a03469",
    ),
    "continuity-baire3-1-identity": (
        ["continuity", "--rel", "rel-baire3-1-identity.json"], 0,
        "a6bd9350c7c56d3192f24e5e7cc1d61964acdb8ec077da56a89f46cd59134dbf",
        "addcdaeb4daac1d95561ac4010d362ae496b10c808356edc77544c92c2bf0052",
    ),
    "continuity-baire3-1-shift": (
        ["continuity", "--rel", "rel-baire3-1-shift.json"], 0,
        "0863ff9fb73474299006f81e498da2b25ebb57f3aeaceb0d4cb1675b410b85ff",
        "384582e175098ed4ea5b868e64920dffc6bb34f7aa1249a0abff685facc62e2f",
    ),
    "continuity-baire3-2-constant": (
        ["continuity", "--rel", "rel-baire3-2-constant.json"], 0,
        "615655740dba51d9b508c4bd51dc42f6b511ffd5b5afe9c18276a42632d98ae7",
        "a27e4ed1ecd362d34eb13b0e05c0563faa3286f44d24884ab4fe60c704a8dfa4",
    ),
    "continuity-baire3-2-identity": (
        ["continuity", "--rel", "rel-baire3-2-identity.json"], 0,
        "3694c73a4b5ad82ee23dd51b9d925c947c5972543fbe4118d028535cf2142aa2",
        "5307303f0fbd585f33d61a514f0c8ec4f812c158846c85044c549ef2044e2ad4",
    ),
    "continuity-baire3-2-shift": (
        ["continuity", "--rel", "rel-baire3-2-shift.json"], 0,
        "471d1d55fc596d48a59ee247370d7d0a0ad0e0de96322b7dd8bdf36768e41710",
        "3defd35021132eb535bf10d4e4c5add42a20da67328b2ad9d73ad8bbb0039d24",
    ),
    "continuity-cantor1-constant": (
        ["continuity", "--rel", "rel-cantor1-constant.json"], 0,
        "b6128d52aa90130b6a52f76e9a8e53eba74523b312d6bf56009eaf88ba8359d5",
        "d996159e074ff7bf408ef3b5290cbfb7fc67aafe0fe37c0013ddca4e7e56fedb",
    ),
    "continuity-cantor1-identity": (
        ["continuity", "--rel", "rel-cantor1-identity.json"], 0,
        "33b4f144292f2d7461e92886cb9783b13524ddd96768555703f5cffef9c8a396",
        "8180a8153c7272366869e6523227ed6a1320db15796a778e6bf3518977bdf77c",
    ),
    "continuity-cantor1-shift": (
        ["continuity", "--rel", "rel-cantor1-shift.json"], 0,
        "2681e228cea30b82d0c8a7ca3c4ca4611cff23a4d91f593acde7d73870ccbc41",
        "8e265b90dddc0a4a36a4064588a261958221dc6242587e5be1aec829024a13c1",
    ),
    "continuity-cantor2-constant": (
        ["continuity", "--rel", "rel-cantor2-constant.json"], 0,
        "080b592b1b595ed493d0bf50890d7609709f93d75d75b71c8e8edb6adf9f8652",
        "631595f758c7de47cb22ac49856977380f315f413618742fe2d08431d5d2531c",
    ),
    "continuity-cantor2-identity": (
        ["continuity", "--rel", "rel-cantor2-identity.json"], 0,
        "81f32f5834b1695dec7d5367950c3a46d1f111f31c34061affd50c90cb1b86c9",
        "4b074d1a86c4aa7b9ea931cf4d6287cf7b0ec721944ebce4f3b4e52b0e02d1e2",
    ),
    "continuity-cantor2-shift": (
        ["continuity", "--rel", "rel-cantor2-shift.json"], 0,
        "877515446d9643f6e93e84064682052c56367428c32c1a887ebc0e3e9c758a97",
        "c157b4f244716c7c9ad91dca935ca7fe54198e38a260bffc856ce4ce7ed50d65",
    ),
    "continuity-cantor3-constant": (
        ["continuity", "--rel", "rel-cantor3-constant.json"], 0,
        "f585fd0635252454723b6bfc1dc67fee297de9f85fd31d81b97d62eb2311c66e",
        "837dd55860af999d4862a28497fcaaa4c53c5120fabe6ef8d5a1ad04ef7ec89e",
    ),
    "continuity-cantor3-identity": (
        ["continuity", "--rel", "rel-cantor3-identity.json"], 0,
        "3bb6d2a5f488c6dd9a8926e07b5c314bffbe1bdd3fc5b10ea82e2a81e864d2ee",
        "77a72fe542d861deb14ad1d935851f4887dd80892036a73bc9e0b4202ca3ba62",
    ),
    "continuity-cantor3-shift": (
        ["continuity", "--rel", "rel-cantor3-shift.json"], 0,
        "b15ce1c945847ced8c26573779d07331ff5924b21398bdeb801d85a76437e454",
        "83f031b71d82153d6649ad57d7aa547abb7e579553d0f85eca4a1efce572118f",
    ),
    "continuity-cantor4-identity": (
        ["continuity", "--rel", "rel-cantor4-identity.json"], 1,
        "54bcfd56208566688f887f14faa8dd85b065f8717df9f9f6a1dc1637b52d10aa",
        "d695a9fb801072aecc24a9666e4af66e5eb1204404a27a6ffdc0b20953aef7e0",
    ),
    "continuity-cantor4-shift": (
        ["continuity", "--rel", "rel-cantor4-shift.json"], 1,
        "a97948aa522637e6230ec3c7d0fc45ee1aef4350f1b73ada4bb56495693d0cef",
        "ddd8314cd3e6c4372c80ae00280537c2baa63149881056ce398ae114b1756455",
    ),
    "check-continuity": (
        ["check", "continuity", "--seed", "5"], 0,
        "05a2f00120641f65daaa2a929c4fe8d850db4f027b6008922283f6a27023a5f0",
        "29bafd2f5a895c9d84d576c703dbe1a13012dc6165c6bebbea0d398a9a3ad3d5",
    ),
    # the bar premise takes 309 forcing steps: below that the run reports
    # FuelExhausted, from there on it concludes; fuel bounds forcing steps only
    "bar-fuel-0": (
        ["bar", "--bar", "bar.json", "--fuel", "0"], 1,
        "8126cb1d747bec90a3f7d0eb67dcdfd63b009382b37690d13308aa7730985133",
        "91a74bb0c24d3a158574daae7e6098f786b9f12be942f189a8b23e6d5ea8a9ad",
    ),
    "bar-fuel-1": (
        ["bar", "--bar", "bar.json", "--fuel", "1"], 1,
        "6dae17974fd7111865458fcc0fcfd4c19a57eb646093df6d8b06aa25facc821f",
        "033775f87e1fd8fcb7199b6294874aceff04d11d3d8102392a8f65432b40d87d",
    ),
    "bar-fuel-154": (
        ["bar", "--bar", "bar.json", "--fuel", "154"], 1,
        "1d2086f757168bf8fa3f38cf5aa02d3ca0a05e9bc1cb89a8b71ef545667ae57f",
        "0ae8aef61087139816e750d66303057d6402919219ea16f062d79150f4de4b5d",
    ),
    "bar-fuel-308": (
        ["bar", "--bar", "bar.json", "--fuel", "308"], 1,
        "e49b6d4acdf5e962b076d2cb764d51ef24ca1b53e853211ba4bdb9d906f00eb9",
        "45e2d6f647d934806f80ad63b292c82c3b3e1fc5130c997caa214d9099f3e7eb",
    ),
    "bar-fuel-309": (
        ["bar", "--bar", "bar.json", "--fuel", "309"], 0,
        "8cc65a274c8ed05b4303d19be50ecb5d69eefe178859cc3febb240dd31dde54e",
        "d4263ff195f782cb3b8be2e95f67c18dd7cbbcb77022addb3cadfcb515c0c891",
    ),
    "bar-fuel-310": (
        ["bar", "--bar", "bar.json", "--fuel", "310"], 0,
        "e8e398438615553014f3fc74541611f5a2522f6841ab8045d07929afa85bce5e",
        "d4263ff195f782cb3b8be2e95f67c18dd7cbbcb77022addb3cadfcb515c0c891",
    ),
    "bar-fuel-3090": (
        ["bar", "--bar", "bar.json", "--fuel", "3090"], 0,
        "f56e7ce79eb073f7d4dc225c104a358e920058f715d04e0a570552a92ac0f51b",
        "d4263ff195f782cb3b8be2e95f67c18dd7cbbcb77022addb3cadfcb515c0c891",
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
