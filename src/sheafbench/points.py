"""Points of a truncated space and the spatial topology they induce.

A point is carried by an eventually constant stream: a finite prefix followed
by a constant tail.  Its basic-open members are the prefixes of that stream
that fit inside the truncated basis, a chain, and :func:`incidence` turns the
chains of a point family into one index from each open to the points
passing through it.  Arbitrary subsets can also be tested for pointhood,
which is how defective candidates are rejected.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .site import Basis, CoverResult, FormalSpace, Sieve, Topology, element_key, sieves_on
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
    """Basic opens the point lies in: stream prefixes within the tree."""
    return frozenset(prefix_chain(point.prefix_of(space.depth), space.branch))


def prefix_chain(seq: tuple, branch: int) -> tuple:
    """Initial segments of ``seq`` in the ``branch``-ary tree, shortest first.

    The chain stops before the first entry outside ``range(branch)``: no
    sequence of that tree passes it.
    """
    cut = next((i for i, e in enumerate(seq) if not 0 <= e < branch), len(seq))
    return tuple(seq[:k] for k in range(cut + 1))


def incidence(space: TruncatedSpace, points: Iterable[Point]) -> dict:
    """Each basic open mapped to the points through it, in family order.

    Read off each point's member chain; a point listed twice keeps its
    first place.  Opens no point passes through are absent.
    """
    index: dict = {}
    for q in points:
        for u in point_members(space, q):
            index.setdefault(u, {})[q] = None
    return {u: tuple(qs) for u, qs in index.items()}


@dataclass(frozen=True)
class PointCheck:
    ok: bool
    failed_condition: int | None = None
    witness: tuple = ()


def member_set(space: FormalSpace, subject) -> frozenset:
    """A candidate point's basic opens: a stream's prefixes, or the given opens."""
    if isinstance(subject, Point):
        if not isinstance(space, TruncatedSpace):
            raise TypeError("a stream names a point of a tree space only")
        return point_members(space, subject)
    members = frozenset(subject)
    for x in members:
        space.basis.require(x)
    return members


def is_point(space: FormalSpace, subject) -> PointCheck:
    """Check inhabitedness, upward closure, directedness, and cover meeting.

    Cover meeting is tested against the enumerated covering families, which
    suffices for the generated relation; a space without a covering system
    has no families to meet.
    """
    alpha = member_set(space, subject)
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
            if (basis.below(u) & basis.below(v)).isdisjoint(alpha):
                return PointCheck(False, 2, (u, v))
    for u in ordered:
        fams = space.system.families_at(u) if space.system is not None else ()
        for fam in fams:
            if not any(x in alpha for x in fam):
                return PointCheck(False, 3, (u, fam))
    return PointCheck(True)


def ext_map(space: TruncatedSpace, points: Iterable[Point]) -> dict:
    """Extent of every basic open within the given point family."""
    through = incidence(space, points)
    return {a: frozenset(through.get(a, ())) for a in space.basis.elements}


class ExtentTopology(Topology):
    """Spatial covers: a sieve covers ``a`` when its extents exhaust ext(a)."""

    def __init__(self, basis: Basis, extent: dict):
        super().__init__(basis)
        self._extent = extent

    def cover(self, a, sieve: Sieve) -> CoverResult:
        self.basis.require(a)
        target = self._extent[a]
        reached = set()
        for v in sieve.members:
            reached |= self._extent[v]
        missing = tuple(sorted(target - reached, key=lambda p: p.sort_key))
        return CoverResult(not missing, depth=0 if not missing else None, frontier=missing)


def pt_space(space: TruncatedSpace, points: Iterable[Point]) -> FormalSpace:
    """The spatial reflection: same elements, extent order, extent covers."""
    extent = ext_map(space, points)
    elements = space.basis.elements
    basis = Basis({b: [a for a in elements if extent[a] <= extent[b]] for b in elements})
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
    space: TruncatedSpace, points: Iterable[Point], sieve_cap: int = 64
) -> EnoughPointsReport:
    """Compare the formal cover relation with the spatial one on sampled sieves.

    Every formal cover must be a spatial cover; the report also counts how
    many sampled spatial covers have no formal derivation, which measures how
    far the point family is from exhausting the space.
    """
    extent = ext_map(space, points)
    checked = 0
    bad = []
    spatial_only = 0
    for a in space.basis.elements:
        for s in sieves_on(space.basis, a, cap=sieve_cap):
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
