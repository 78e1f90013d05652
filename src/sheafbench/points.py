"""Points of a truncated space and the spatial topology they induce.

A point is carried by an eventually constant stream: a finite prefix followed
by a constant tail.  Its basic-open members are the prefixes of that stream
that fit inside the truncated basis.  Arbitrary subsets can also be tested
for pointhood, which is how defective candidates are rejected.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .site import Basis, CoverResult, FormalSpace, Sieve, Topology, element_key
from .spaces import TruncatedSpace, all_sequences


@dataclass(frozen=True)
class Point:
    """Eventually constant stream, normalized so the representation is unique."""

    prefix: tuple
    tail: int

    def __post_init__(self):
        prefix = tuple(self.prefix)
        while prefix and prefix[-1] == self.tail:
            prefix = prefix[:-1]
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "_hash", hash((prefix, self.tail)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def sort_key(self):
        return (len(self.prefix), self.prefix, self.tail)

    def value(self, i: int) -> int:
        return self.prefix[i] if i < len(self.prefix) else self.tail

    def prefix_of(self, length: int) -> tuple:
        return tuple(self.value(i) for i in range(length))

    def passes_through(self, u: tuple) -> bool:
        return self.prefix_of(len(u)) == tuple(u)

    def __repr__(self) -> str:
        head = ",".join(map(str, self.prefix))
        return f"Point({head}|{self.tail})"


def eventually_constant_points(branch: int, max_prefix: int) -> tuple:
    """All normalized points with prefix length at most ``max_prefix``."""
    out = set()
    for prefix in all_sequences(branch, max_prefix):
        for tail in range(branch):
            out.add(Point(prefix, tail))
    return tuple(sorted(out, key=lambda p: p.sort_key))


def point_members(space: TruncatedSpace, point: Point) -> frozenset:
    """Basic opens the point lies in: stream prefixes within the truncation."""
    return frozenset(point.prefix_of(q) for q in range(space.depth + 1))


@dataclass(frozen=True)
class PointCheck:
    ok: bool
    failed_condition: int | None = None
    witness: tuple = ()


def _as_member_set(space: FormalSpace, subject) -> frozenset:
    if isinstance(subject, Point):
        return point_members(space, subject)
    members = frozenset(subject)
    for x in members:
        space.basis.require(x)
    return members


def is_point(space: FormalSpace, subject) -> PointCheck:
    """Check inhabitedness, upward closure, directedness, and cover meeting.

    Cover meeting is tested against the enumerated covering families, which
    suffices for the generated relation.
    """
    alpha = _as_member_set(space, subject)
    basis = space.basis
    if not alpha:
        return PointCheck(False, 2, ())
    ordered = tuple(sorted(alpha, key=element_key))
    for u in ordered:
        for v in basis.up(u):
            if v not in alpha:
                return PointCheck(False, 1, (u, v))
    for u in ordered:
        for v in ordered:
            if not any(basis.leq(w, u) and basis.leq(w, v) for w in alpha):
                return PointCheck(False, 2, (u, v))
    families = space.system.families_at if space.system is not None else None
    for u in ordered:
        fams = families(u) if families else ()
        if not fams and space.topology.basic_covers(u):
            fams = tuple(s.generators for s in space.topology.basic_covers(u))
        for fam in fams:
            if not any(x in alpha for x in fam):
                return PointCheck(False, 3, (u, fam))
    return PointCheck(True)


def ext_map(space: TruncatedSpace, points: Iterable[Point]) -> dict:
    """Extent of every basic open within the given point family."""
    pts = tuple(points)
    return {
        a: frozenset(p for p in pts if p.passes_through(a))
        for a in space.basis.elements
    }


class ExtentTopology(Topology):
    """Spatial covers: a sieve covers ``a`` when its extents exhaust ext(a)."""

    def __init__(self, basis: Basis, extent: dict):
        super().__init__(basis)
        self._extent = extent

    def cover(self, a, sieve: Sieve, fuel: int | None = None) -> CoverResult:
        self.basis.require(a)
        target = self._extent[a]
        reached = set()
        for v in sieve.members:
            reached |= self._extent[v]
        missing = tuple(sorted(target - reached, key=lambda p: p.sort_key))
        return CoverResult(not missing, depth=0 if not missing else None, frontier=missing)


def pt_space(space: TruncatedSpace, points: Iterable[Point]) -> FormalSpace:
    """The spatial reflection: same elements, extent order, extent covers."""
    pts = tuple(points)
    extent = ext_map(space, pts)
    basis = Basis(space.basis.elements, lambda a, b: extent[a] <= extent[b])
    return FormalSpace(basis, ExtentTopology(basis, extent))


@dataclass(frozen=True)
class EnoughPointsReport:
    checked: int
    formal_not_spatial: tuple  # formal covers invisible to the points: must be empty
    spatial_not_formal: int   # spatial covers with no formal derivation

    @property
    def ok(self) -> bool:
        return not self.formal_not_spatial


def enough_points_check(
    space: TruncatedSpace,
    points: Iterable[Point],
    sieve_cap: int = 64,
    rng=None,
) -> EnoughPointsReport:
    """Compare the formal cover relation with the spatial one on sampled sieves.

    Every formal cover must be a spatial cover; the report also counts how
    many sampled spatial covers have no formal derivation, which measures how
    far the point family is from exhausting the space.
    """
    from .site import sieves_on

    extent = ext_map(space, tuple(points))
    checked = 0
    bad = []
    spatial_only = 0
    for a in space.basis.elements:
        for s in sieves_on(space.basis, a, cap=sieve_cap, rng=rng):
            checked += 1
            formal = space.topology.cover(a, s).covered
            reached = set()
            for v in s.members:
                reached |= extent[v]
            spatial = extent[a] <= reached
            if formal and not spatial:
                bad.append((a, s.generators))
            if spatial and not formal:
                spatial_only += 1
    return EnoughPointsReport(checked, tuple(bad), spatial_only)
