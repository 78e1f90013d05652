"""The double of a truncated space over a family of its points.

Basic opens come in two kinds: a copy D(u) of each inner basic open, and one
extra minimal open {q} per chosen point.  {q} sits below D(v) exactly when q
passes through v, covers of D(u) are inherited from the inner space (with the
matching point opens added to each family), and each {q} is covered only by
itself.  Three canonical maps connect the double with its ingredients.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .site import (
    Basis,
    CoverResult,
    CoveringSystem,
    FormalSpace,
    Sieve,
    Topology,
)
from .points import Point, is_point, point_members
from .maps import ContinuousMap, discrete_space
from .spaces import TruncatedSpace


@dataclass(frozen=True)
class DOpen:
    """Copy of an inner basic open."""

    seq: tuple

    @property
    def sort_key(self):
        return (0, len(self.seq), self.seq)

    def __repr__(self) -> str:
        return "D(" + ",".join(map(str, self.seq)) + ")"


@dataclass(frozen=True)
class SingletonOpen:
    """The extra minimal open attached to one chosen point."""

    point: Point

    @property
    def sort_key(self):
        return (1,) + self.point.sort_key

    def __repr__(self) -> str:
        return "{" + repr(self.point) + "}"


class DoubleTopology(Topology):
    """Covers computed from the inner space in closed form.

    A sieve covers D(u) iff its D-part covers u inside the inner space; the
    matching point opens are then automatically members because sieves are
    downward closed.  A sieve covers {q} iff it contains {q}.
    """

    def __init__(self, basis: Basis, inner: TruncatedSpace):
        super().__init__(basis)
        self.inner = inner

    def cover(self, x, sieve: Sieve, fuel: int | None = None) -> CoverResult:
        self.basis.require(x)
        if isinstance(x, SingletonOpen):
            hit = sieve.contains(x)
            return CoverResult(hit, depth=0 if hit else None,
                               frontier=() if hit else (x,))
        dpart = [
            v for v in self.inner.basis.down(x.seq)
            if sieve.contains(DOpen(v))
        ]
        inner_sieve = Sieve.from_generators(self.inner.basis, x.seq, dpart)
        res = self.inner.topology.cover(x.seq, inner_sieve, fuel=fuel)
        return CoverResult(
            res.covered,
            depth=res.depth,
            exhausted=res.exhausted,
            frontier=tuple(DOpen(v) for v in res.frontier),
        )


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


def double_leq(x, y) -> bool:
    if isinstance(x, DOpen) and isinstance(y, DOpen):
        return x.seq[: len(y.seq)] == y.seq
    if isinstance(x, SingletonOpen) and isinstance(y, DOpen):
        return x.point.passes_through(y.seq)
    if isinstance(x, SingletonOpen) and isinstance(y, SingletonOpen):
        return x == y
    return False


def build_double(inner: TruncatedSpace, points: Iterable[Point]) -> DoubleSpace:
    pts = tuple(sorted(set(points), key=lambda p: p.sort_key))
    for p in pts:
        entries = set(p.prefix) | {p.tail}
        if not all(isinstance(e, int) and 0 <= e < inner.branch for e in entries):
            raise ValueError(f"point entries outside branching {inner.branch}: {p}")
        verdict = is_point(inner, p)
        if not verdict.ok:
            raise ValueError(f"not a point of the inner space: {p}")
    elements = tuple(DOpen(u) for u in inner.basis.elements) + tuple(
        SingletonOpen(p) for p in pts
    )
    basis = Basis(elements, double_leq)
    table = {}
    if inner.system is not None:
        for u in inner.basis.elements:
            fams = []
            for fam in inner.system.families_at(u):
                extra = tuple(
                    SingletonOpen(q)
                    for q in pts
                    if any(q.passes_through(v) for v in fam)
                )
                fams.append(tuple(DOpen(v) for v in fam) + extra)
            if fams:
                table[DOpen(u)] = tuple(fams)
    for q in pts:
        table[SingletonOpen(q)] = ((SingletonOpen(q),),)
    system = CoveringSystem(basis, table)
    topology = DoubleTopology(basis, inner)
    return DoubleSpace(basis, topology, system, inner=inner, points=pts)


def anchored_point_members(double: DoubleSpace, q: Point) -> frozenset:
    """Member set of the point of the double rooted at {q}."""
    if q not in double.points:
        raise ValueError(f"{q} is not one of the double's chosen points")
    return frozenset({double.singleton(q)}) | lifted_point_members(double, q)


def lifted_point_members(double: DoubleSpace, q: Point) -> frozenset:
    """Member set of the image of an inner point under the D-embedding."""
    return frozenset(DOpen(u) for u in point_members(double.inner, q))


def enumerate_double_points(double: DoubleSpace, extra_points: Iterable[Point] = ()) -> tuple:
    """All anchored and lifted points of the double, as (kind, point, members).

    Lifted points range over the chosen points plus any extras supplied;
    anchored points exist only for the chosen ones.
    """
    out = []
    for q in double.points:
        out.append(("anchored", q, anchored_point_members(double, q)))
    lifted = set(double.points) | set(extra_points)
    for q in sorted(lifted, key=lambda p: p.sort_key):
        out.append(("lifted", q, lifted_point_members(double, q)))
    return tuple(out)


@dataclass(frozen=True)
class CanonicalMaps:
    mu: ContinuousMap    # inner -> double, u |-> D(u)
    pi: ContinuousMap    # double -> inner, collapse D and points alike
    nu: ContinuousMap    # discrete point set -> double, q |-> {q}
    point_source: FormalSpace


def canonical_maps(double: DoubleSpace) -> CanonicalMaps:
    inner = double.inner
    mu_pairs = {
        (u, DOpen(v))
        for u in inner.basis.elements
        for v in inner.basis.up(u)
    }
    mu = ContinuousMap(inner, double, frozenset(mu_pairs))

    pi_pairs = {
        (DOpen(v), u)
        for v in inner.basis.elements
        for u in inner.basis.up(v)
    } | {
        (SingletonOpen(q), u)
        for q in double.points
        for u in point_members(inner, q)
    }
    pi = ContinuousMap(double, inner, frozenset(pi_pairs))

    point_source = discrete_space(double.points)
    nu_pairs = {(q, double.singleton(q)) for q in double.points} | {
        (q, DOpen(u))
        for q in double.points
        for u in point_members(inner, q)
    }
    nu = ContinuousMap(point_source, double, frozenset(nu_pairs))
    return CanonicalMaps(mu, pi, nu, point_source)
