"""Seeded generators for random preorders, covering systems, bars, formulas.

Used by the self-check suites and the test battery.  Everything is driven by
an explicit ``random.Random`` so identical seeds reproduce identical data.
"""
from __future__ import annotations

import random

from . import formulas as F
from .site import Basis, CoveringAxiomViolation, CoveringSystem, Sieve
from .spaces import TruncatedSpace, Bar, bar_from_generators


def random_preorder(rng: random.Random, size: int) -> Basis:
    """Random finite preorder on string labels, closed reflexively and transitively."""
    labels = [f"e{i}" for i in range(size)]
    pairs = [
        (labels[i], labels[j])
        for i in range(size)
        for j in range(size)
        if i != j and rng.random() < 0.25
    ]
    return Basis.from_pairs(labels, pairs)


def random_covering_system(rng: random.Random, basis: Basis) -> CoveringSystem:
    """Random covering system repaired until the covering axiom holds.

    Each element draws up to two non-empty families of at most three members.
    Missing restrictions are patched by adding the full restricted family, so
    the repair loop terminates and the result always validates.
    """
    families: dict = {a: [] for a in basis.elements}
    for a in basis.elements:
        down = list(basis.down(a))
        for _ in range(rng.randint(0, 2)):
            size = rng.randint(1, min(3, len(down)))
            families[a].append(tuple(sorted(rng.sample(down, size))))

    def build() -> CoveringSystem:
        return CoveringSystem(basis, {a: tuple(f) for a, f in families.items()})

    while True:
        system = build()
        try:
            system.validate()
            return system
        except CoveringAxiomViolation as v:
            members = Sieve.from_generators(basis, v.p, v.family).restrict(v.q).members
            restriction = tuple(r for r in basis.down(v.q) if r in members)
            if restriction in families[v.q]:
                raise AssertionError("repair loop failed to make progress")
            families[v.q].append(restriction)


def random_monotone_bar(rng: random.Random, space: TruncatedSpace) -> Bar:
    """Monotone bar from random generators that covers the root.

    Every leaf missing from the generated sieve is added as a generator, so
    the bar meets every path of the truncated tree.
    """
    pool = [u for u in space.basis.elements if len(u) >= 1]
    count = rng.randint(1, max(1, len(pool) // 3))
    gens = set(rng.sample(pool, min(count, len(pool))))
    for leaf in space.leaves():
        if not any(leaf[: len(g)] == g for g in gens):
            gens.add(leaf)
    return bar_from_generators(space, gens)


# quantifier sorts, drawn uniformly (the repeat doubles the weight of Nat),
# and the prefix of the variables each sort binds
_SORTS = ("Nat", "Nat", "FinSeq", "Seq2")
_VAR_PREFIX = {"Nat": "n", "FinSeq": "u", "Seq2": "a"}


def random_formula(rng: random.Random, depth: int, n_max: int = 8):
    """Random closed, well-sorted formula with AST depth at most ``depth``.

    Quantifiers range over Nat, FinSeq and Seq2; stream atoms take the
    generic stream ``pi`` or a bound Seq2 variable.
    """
    fresh = dict.fromkeys(_VAR_PREFIX, 0)
    scope: dict = {sort: [] for sort in _VAR_PREFIX}

    def nat_term():
        choices = ["lit"]
        if scope["Nat"]:
            choices += ["var", "sum"]
        kind = rng.choice(choices)
        if kind == "lit":
            return F.Lit(rng.randint(0, max(2, n_max // 2)))
        var = F.Name(rng.choice(scope["Nat"]))
        if kind == "var":
            return var
        return F.Sum(var, F.Lit(rng.randint(0, 2)))

    def atom():
        kinds = ["EqNat", "Leq"]
        if scope["FinSeq"]:
            kinds += ["InBar", "InBar", "EqFin"]
        kinds.append("App")
        if scope["FinSeq"]:
            kinds.append("Prefix")
        kinds.append("EqStream")
        kind = rng.choice(kinds)
        if kind == "EqNat":
            return F.Atom("Eq", (nat_term(), nat_term()))
        if kind == "Leq":
            return F.Atom("Leq", (nat_term(), nat_term()))
        if kind == "InBar":
            return F.Atom("InBar", (F.Name(rng.choice(scope["FinSeq"])),))
        if kind == "EqFin":
            picks = rng.choices(scope["FinSeq"], k=2)
            return F.Atom("Eq", (F.Name(picks[0]), F.Name(picks[1])))
        streams = [F.Name(x) for x in scope["Seq2"]] + [F.Name("pi")]
        if kind == "App":
            return F.Atom("App", (rng.choice(streams), nat_term(), nat_term()))
        if kind == "Prefix":
            return F.Atom(
                "Prefix", (rng.choice(streams), F.Name(rng.choice(scope["FinSeq"])))
            )
        picks = rng.choices(streams, k=2)
        return F.Atom("Eq", (picks[0], picks[1]))

    def build(d: int):
        if d <= 0:
            return F.Falsum() if rng.random() < 0.05 else atom()
        roll = rng.random()
        if roll < 0.25:
            return atom()
        if roll < 0.45:
            node = F.And if rng.random() < 0.5 else F.Or
            return node(build(d - 1), build(d - 1))
        if roll < 0.60:
            return F.Implies(build(d - 1), build(d - 1))
        sort = rng.choice(_SORTS)
        fresh[sort] += 1
        var = f"{_VAR_PREFIX[sort]}{fresh[sort]}"
        scope[sort].append(var)
        body = build(d - 1)
        scope[sort].pop()
        quant = F.Exists if rng.random() < 0.65 else F.Forall
        return quant(var, sort, body)

    return build(depth)
