"""Seeded generators for random preorders, covering systems, bars, formulas.

Used by the self-check suites and the test battery.  Everything is driven by
an explicit ``random.Random`` so identical seeds reproduce identical data.
"""
from __future__ import annotations

import random

from . import formulas as F
from .site import Basis, CoveringAxiomViolation, CoveringSystem
from .spaces import TruncatedSpace, Bar, bar_from_generators, u_bracket


def random_preorder(rng: random.Random, size: int) -> Basis:
    """Random finite preorder on string labels, closed reflexively and transitively."""
    labels = [f"e{i}" for i in range(size)]
    below: dict[str, set] = {a: {a} for a in labels}
    for i in range(size):
        for j in range(size):
            if i != j and rng.random() < 0.25:
                below[labels[j]].add(labels[i])  # labels[i] <= labels[j]
    changed = True
    while changed:
        changed = False
        for a in labels:
            extra = set()
            for b in below[a]:
                extra |= below[b]
            if not extra <= below[a]:
                below[a] |= extra
                changed = True
    frozen = {a: frozenset(s) for a, s in below.items()}
    return Basis(labels, lambda x, y: x in frozen[y])


def random_covering_system(
    rng: random.Random,
    basis: Basis,
    max_families: int = 2,
    allow_empty: bool = False,
) -> CoveringSystem:
    """Random covering system repaired until the covering axiom holds.

    Missing restrictions are patched by adding the full restricted family, so
    the repair loop terminates and the result always validates.
    """
    families: dict = {a: [] for a in basis.elements}
    for a in basis.elements:
        down = list(basis.down(a))
        for _ in range(rng.randint(0, max_families)):
            low = 0 if allow_empty and rng.random() < 0.1 else 1
            size = rng.randint(low, max(low, min(3, len(down))))
            fam = tuple(sorted(rng.sample(down, size))) if size else ()
            families[a].append(fam)

    def build() -> CoveringSystem:
        return CoveringSystem(basis, {a: tuple(f) for a, f in families.items()})

    while True:
        system = build()
        try:
            system.validate()
            return system
        except CoveringAxiomViolation as v:
            restriction = tuple(
                r
                for r in basis.down(v.q)
                if any(basis.leq(r, x) for x in v.family)
            )
            if restriction in families[v.q]:
                raise AssertionError("repair loop failed to make progress")
            families[v.q].append(restriction)


def random_monotone_bar(
    rng: random.Random, space: TruncatedSpace, covering: bool = True
) -> Bar:
    """Monotone bar from random generators, optionally forced to cover the root.

    When ``covering`` is set, every leaf missing from the generated sieve is
    added as a generator, so the bar meets every path of the truncated tree.
    """
    pool = [u for u in space.basis.elements if len(u) >= 1]
    count = rng.randint(1, max(1, len(pool) // 3))
    gens = set(rng.sample(pool, min(count, len(pool))))
    if covering:
        for leaf in u_bracket(space, (), space.depth):
            if not any(leaf[: len(g)] == g for g in gens):
                gens.add(leaf)
    return bar_from_generators(space, gens, monotone=True)


_VAR_PREFIX = {"Nat": "n", "FinSeq": "u", "Seq2": "a", "SeqN": "b"}


def random_formula(
    rng: random.Random,
    depth: int,
    sorts: tuple = ("Nat", "Nat", "FinSeq", "Seq2"),
    generic: str | None = "pi",
    generic_sort: str = "Seq2",
    allow_inbar: bool = True,
    allow_rel: bool = False,
    n_max: int = 8,
):
    """Random closed, well-sorted formula with AST depth at most ``depth``.

    Quantifier sorts are drawn from ``sorts`` (repeats skew the weights);
    the generic stream name, when given, is used as a stream term alongside
    bound variables.
    """
    fresh = {"Nat": 0, "FinSeq": 0, "Seq2": 0, "SeqN": 0}
    scope: dict = {"Nat": [], "FinSeq": [], "Seq2": [], "SeqN": []}

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

    def stream_terms(sort: str) -> list:
        terms = [F.Name(x) for x in scope[sort]]
        if generic is not None and sort == generic_sort:
            terms.append(F.Name(generic))
        return terms

    def atom():
        kinds = ["EqNat", "Leq"]
        if allow_inbar and scope["FinSeq"]:
            kinds += ["InBar", "InBar"]
        if len(scope["FinSeq"]) >= 1:
            kinds.append("EqFin")
        for sort in ("Seq2", "SeqN"):
            streams = stream_terms(sort)
            if streams:
                kinds.append(("App", sort))
                if scope["FinSeq"]:
                    kinds.append(("Prefix", sort))
                if len(streams) >= 1:
                    kinds.append(("EqStream", sort))
                if allow_rel:
                    kinds.append(("Rel", sort))
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
        name, sort = kind
        streams = stream_terms(sort)
        if name == "App":
            return F.Atom("App", (rng.choice(streams), nat_term(), nat_term()))
        if name == "Prefix":
            return F.Atom(
                "Prefix", (rng.choice(streams), F.Name(rng.choice(scope["FinSeq"])))
            )
        if name == "EqStream":
            picks = rng.choices(streams, k=2)
            return F.Atom("Eq", (picks[0], picks[1]))
        picks = rng.choices(streams, k=2)
        return F.Atom("Rel", (picks[0], picks[1]))

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
        sort = rng.choice(sorts)
        fresh[sort] += 1
        var = f"{_VAR_PREFIX[sort]}{fresh[sort]}"
        scope[sort].append(var)
        body = build(d - 1)
        scope[sort].pop()
        quant = F.Exists if rng.random() < 0.65 else F.Forall
        return quant(var, sort, body)

    return build(depth)
