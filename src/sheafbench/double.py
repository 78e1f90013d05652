"""The double of a truncated space over a family of its points.

Basic opens come in two kinds: a copy D(u) of each inner basic open, and one
extra minimal open {q} per chosen point.  {q} sits below D(v) exactly when q
passes through v, which the point index (:func:`points.incidence`, read off
each point's prefix chain) answers, so the down-set of D(u) is the copy of
the inner down-set of u plus the opens of the points the index lists at u.
Covers of D(u) are inherited from the inner space (with the matching point
opens added to each family), and each {q} is covered only by itself.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .site import (
    Basis,
    CoveringSystem,
    FormalSpace,
    Sieve,
    Topology,
)
from .points import Point, incidence
from .spaces import TruncatedSpace


@dataclass(frozen=True)
class DOpen:
    """Copy of an inner basic open."""

    seq: tuple

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.seq,)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def sort_key(self):
        return (0, len(self.seq), self.seq)

    def __repr__(self) -> str:
        return "D(" + ",".join(map(str, self.seq)) + ")"


@dataclass(frozen=True)
class SingletonOpen:
    """The extra minimal open attached to one chosen point."""

    point: Point

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.point,)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def sort_key(self):
        return (1,) + self.point.sort_key

    def __repr__(self) -> str:
        return "{" + repr(self.point) + "}"


class DoubleTopology(Topology):
    """Covers computed from the inner space in closed form.

    A sieve covers D(u) iff its D-part covers u inside the inner space, at
    the same depth; the matching point opens are then automatically members
    because sieves are downward closed.  A sieve covers {q} iff it contains
    {q}.
    """

    def __init__(self, basis: Basis, inner: TruncatedSpace):
        super().__init__(basis)
        self.inner = inner

    def inner_sieve(self, x: DOpen, sieve: Sieve) -> Sieve:
        """The D-part of ``sieve`` below ``x``, read as a sieve of the inner space."""
        dpart = (v.seq for v in sieve.members if isinstance(v, DOpen))
        return Sieve.from_generators(self.inner.basis, x.seq, dpart)

    def ranks(self, zone) -> dict:
        """The zone's point opens at rank 0, and D(u) at the rank the inner
        topology gives u from the zone's D-part (downward closed in the
        inner basis)."""
        inner = self.inner.topology.ranks(
            frozenset(x.seq for x in zone if isinstance(x, DOpen)))
        got = dict.fromkeys((x for x in zone if isinstance(x, SingletonOpen)), 0)
        got.update((DOpen(u), r) for u, r in inner.items())
        return got

    def _scope(self, x) -> Iterable:
        if isinstance(x, SingletonOpen):
            return (x,)
        return map(DOpen, self.inner.topology._scope(x.seq))


@dataclass(frozen=True)
class DoubleSpace(FormalSpace):
    inner: TruncatedSpace = None
    points: tuple = ()

    def d(self, u) -> DOpen:
        x = DOpen(tuple(u))
        self.basis.require(x)
        return x

    def singleton(self, point: Point) -> SingletonOpen:
        x = SingletonOpen(point)
        self.basis.require(x)
        return x


def build_double(inner: TruncatedSpace, points: Iterable[Point]) -> DoubleSpace:
    """The double over ``points``, whose entries alone are checked: the rest is a tested lemma."""
    pts = tuple(sorted(set(points), key=lambda p: p.sort_key))
    for p in pts:
        entries = set(p.prefix) | {p.tail}
        if not all(isinstance(e, int) and 0 <= e < inner.branch for e in entries):
            raise ValueError(f"point entries outside branching {inner.branch}: {p}")
    dopen = {u: DOpen(u) for u in inner.basis.elements}
    # the point opens below each D(u): those of the points passing through u
    index = incidence(inner, pts)
    through = {u: set(map(SingletonOpen, index.get(u, ()))) for u in dopen}
    below, table = {}, {}
    for q in pts:
        single = SingletonOpen(q)
        below[single] = (single,)
        table[single] = ((single,),)
    for u, x in dopen.items():
        below[x] = through[u].union(map(dopen.__getitem__, inner.basis.below(u)))
    basis = Basis(below)
    if inner.system is not None:
        # each family is the inner one's D-opens, in inner order, then its
        # point opens in point order: canonical order, so it is packed
        for u, x in dopen.items():
            fams = tuple(
                tuple(map(dopen.__getitem__, fam))
                + tuple(sorted(set().union(*map(through.__getitem__, fam)),
                               key=lambda single: single.point.sort_key))
                for fam in inner.system.families_at(u)
            )
            if fams:
                table[x] = fams
    system = CoveringSystem._packed(basis, table)
    topology = DoubleTopology(basis, inner)
    return DoubleSpace(basis, topology, system, inner=inner, points=pts)
