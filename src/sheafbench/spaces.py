"""Truncated sequence spaces: finite binary and finitely branching trees.

Basic opens are finite sequences ordered by "extension lies below prefix".
Truncation keeps every sequence of length at most ``depth``; covering data on
the binary space can also be decided directly through uniform brackets, which
gives an independent route used to cross-check the generated relation.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable

from .site import (
    Basis,
    CoverResult,
    CoveringSystem,
    FormalSpace,
    NotACover,
    Sieve,
    Topology,
    generate_topology,
)

Seq = tuple


class DepthExceeded(ValueError):
    """A requested bracket or sequence lies outside the truncated basis."""


class NotMonotone(ValueError):
    def __init__(self, shorter: Seq, longer: Seq):
        self.shorter, self.longer = shorter, longer
        super().__init__(
            f"predicate holds at {shorter!r} but not at its extension {longer!r}"
        )


class NotInductive(ValueError):
    def __init__(self, node: Seq):
        self.node = node
        super().__init__(f"predicate holds on all children of {node!r} but not there")


def seq_leq(u: Seq, v: Seq) -> bool:
    """u lies below v when v is an initial segment of u."""
    return len(v) <= len(u) and u[: len(v)] == v


def bracket(branch: int, u: Seq, q: int) -> tuple:
    """All length-q extensions of ``u`` in a ``branch``-ary tree."""
    return tuple(u + rest for rest in itertools.product(range(branch), repeat=q - len(u)))


def all_sequences(branch: int, depth: int) -> tuple:
    return tuple(u for q in range(depth + 1) for u in bracket(branch, (), q))


def u_bracket(space: "TruncatedSpace", u: Seq, q: int) -> tuple:
    """All length-q extensions of ``u``; q must lie within the truncation."""
    space.basis.require(u)
    if q < len(u) or q > space.depth:
        raise DepthExceeded(f"bracket depth {q} outside [{len(u)}, {space.depth}]")
    return bracket(space.branch, u, q)


@dataclass(frozen=True)
class TruncatedSpace(FormalSpace):
    """A sequence space cut at a finite depth.

    ``kind`` is "cantor" (branch fixed to 2, cover test decided by uniform
    brackets) or "baire" (cover relation generated from the child families).
    """

    kind: str = "cantor"
    branch: int = 2
    depth: int = 0

    def leaves(self, u: Seq = ()) -> tuple:
        return u_bracket(self, u, self.depth)


class BracketTopology(Topology):
    """Direct cover test for the truncated binary space.

    A sieve covers ``u`` exactly when some uniform bracket of ``u`` sits
    inside it; the minimal such depth is reported.  Works for any branching
    factor, but is only an equivalent presentation where monotone sieves
    stabilize by the truncation depth, which holds on these tree bases.
    """

    def __init__(self, basis: Basis, branch: int, depth: int):
        super().__init__(basis)
        self.branch = branch
        self.depth = depth

    def cover(self, u: Seq, sieve: Sieve, fuel: int | None = None) -> CoverResult:
        self.basis.require(u)
        for q in range(len(u), self.depth + 1):
            if all(sieve.contains(v) for v in bracket(self.branch, u, q)):
                return CoverResult(True, depth=q)
        frontier = tuple(
            v for v in bracket(self.branch, u, self.depth) if not sieve.contains(v)
        )
        return CoverResult(False, frontier=frontier)

    def basic_covers(self, u: Seq):
        return tuple(
            Sieve.from_generators(self.basis, u, bracket(self.branch, u, q))
            for q in range(len(u), self.depth + 1)
        )


def _child_system(basis: Basis, branch: int, depth: int) -> CoveringSystem:
    """Families "all immediate children"; leaves carry the trivial family.

    The trivial family at leaves keeps the covering axiom valid at the
    truncation boundary without adding derivations.
    """
    families = {}
    for u in basis.elements:
        if len(u) < depth:
            families[u] = [tuple(u + (n,) for n in range(branch))]
        else:
            families[u] = [(u,)]
    return CoveringSystem(basis, families)


def _bracket_system(basis: Basis, branch: int, depth: int) -> CoveringSystem:
    families = {
        u: [bracket(branch, u, q) for q in range(len(u), depth + 1)]
        for u in basis.elements
    }
    return CoveringSystem(basis, families)


def cantor_space(depth: int) -> TruncatedSpace:
    """Truncated binary space with the direct bracket cover test."""
    basis = Basis(all_sequences(2, depth), seq_leq)
    system = _bracket_system(basis, 2, depth)
    system.validate()
    return TruncatedSpace(
        basis=basis,
        topology=BracketTopology(basis, 2, depth),
        system=system,
        kind="cantor",
        branch=2,
        depth=depth,
    )


def baire_space(branch: int, depth: int) -> TruncatedSpace:
    """Truncated ``branch``-ary space with the generated child-family covers."""
    if branch < 1:
        raise ValueError("branch must be at least 1")
    basis = Basis(all_sequences(branch, depth), seq_leq)
    system = _child_system(basis, branch, depth)
    topology = generate_topology(system, validate=True)
    return TruncatedSpace(
        basis=basis,
        topology=topology,
        system=system,
        kind="baire",
        branch=branch,
        depth=depth,
    )


def kfinite_subcover(space: TruncatedSpace, u: Seq, sieve: Sieve) -> tuple:
    """Finite subcover listed from the minimal uniform bracket.

    The returned elements all belong to the sieve and the sieve they generate
    still covers ``u``; raises :class:`NotACover` when the test fails.
    """
    if space.kind != "cantor":
        raise ValueError("direct bracket test is defined on the binary space")
    result = space.topology.cover(u, sieve)
    if not result.covered:
        raise NotACover(f"no uniform bracket of {u!r} inside the sieve")
    return u_bracket(space, u, result.depth)


# ---------------------------------------------------------------------------
# Bars: decidable predicates used as covering data


@dataclass(frozen=True)
class Bar:
    """A decidable predicate on the truncated basis with verified flags.

    ``monotone`` asserts extensions inherit the predicate; ``inductive``
    asserts that a node whose children all satisfy it satisfies it too
    (checked away from the truncation boundary, where children exist).
    """

    space: TruncatedSpace
    predicate: Callable[[Seq], bool]
    monotone: bool = True
    inductive: bool = False

    def __post_init__(self):
        if self.monotone:
            for u in self.space.basis.elements:
                if len(u) < self.space.depth and self.predicate(u):
                    for n in range(self.space.branch):
                        if not self.predicate(u + (n,)):
                            raise NotMonotone(u, u + (n,))
        if self.inductive:
            for u in self.space.basis.elements:
                if len(u) < self.space.depth:
                    if all(
                        self.predicate(u + (n,)) for n in range(self.space.branch)
                    ) and not self.predicate(u):
                        raise NotInductive(u)

    def holds(self, u: Seq) -> bool:
        return bool(self.predicate(u))

    def members(self) -> tuple:
        return tuple(u for u in self.space.basis.elements if self.predicate(u))


def bar_from_generators(
    space: TruncatedSpace,
    generators: Iterable[Seq],
    monotone: bool = True,
    inductive: bool = False,
) -> Bar:
    """Bar whose predicate is "lies below some generator"."""
    gens = tuple(sorted({tuple(g) for g in generators}))
    for g in gens:
        space.basis.require(g)
    return Bar(
        space,
        lambda u, _g=gens: any(seq_leq(u, g) for g in _g),
        monotone=monotone,
        inductive=inductive,
    )


def bar_to_sieve(bar: Bar, root: Seq = ()) -> Sieve:
    """Sieve of all elements below ``root`` satisfying the bar predicate.

    Generators are the maximal satisfying elements, so for a monotone bar the
    sieve's membership agrees with the predicate on the whole fragment.
    """
    basis = bar.space.basis
    basis.require(root)
    hits = [u for u in basis.down(root) if bar.holds(u)]
    return Sieve.from_generators(basis, root, hits)
