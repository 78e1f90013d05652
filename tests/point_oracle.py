"""Reference oracles for points: pointhood, incidence scans and the spatial reflection.

The package reads "which points pass through this open" off one index built
from each point's prefix chain (``points.incidence``) and sees a stream in
the target tree through its prefix chain.  The scans here recompute both the
way the package once did, by asking ``Point.passes_through`` of every
candidate, so the tests can compare the two.

The package never checks a stream for pointhood: every stream inside the
branching is a point, a lemma the tests prove with :func:`is_point`.  The
spatial reflection over a point family (:func:`pt_space`) and the comparison
of formal with spatial covers (:func:`enough_points_check`) also live here,
since no suite or rule of the package asks for them.
"""
from dataclasses import dataclass
from typing import Iterable

from sheafbench.double import DOpen
from sheafbench.points import Point, incidence, point_members
from sheafbench.site import Basis, CoverResult, FormalSpace, Sieve, Topology, element_key, sieves_on
from sheafbench.spaces import TruncatedSpace, all_sequences, seq_leq


def scan_through(opens, points) -> dict:
    """Each open mapped to the points passing through it, in family order."""
    family = tuple(dict.fromkeys(points))
    return {a: tuple(p for p in family if p.passes_through(a)) for a in opens}


def scan_observation(point, branch: int, depth: int) -> frozenset:
    """Sequences of the ``branch``-ary tree cut at ``depth`` the stream passes through."""
    return frozenset(w for w in all_sequences(branch, depth) if point.passes_through(w))


def scan_generic(seq: tuple, branch: int, depth: int) -> frozenset:
    """Sequences of the ``branch``-ary tree cut at ``depth`` that are prefixes of ``seq``."""
    return frozenset(w for w in all_sequences(branch, depth) if seq_leq(seq, w))


def double_point_family(double, extra_points) -> tuple:
    """``(point, members)`` for the anchored points of a double, then the lifted ones.

    An anchored point holds its own open {q} and the copies of its prefixes;
    lifted points range over the chosen points and the extras, in sort order,
    and hold the copies only.
    """
    def lifted(q):
        return frozenset(DOpen(u) for u in double.inner.basis.elements if q.passes_through(u))

    out = [(q, lifted(q) | {double.singleton(q)}) for q in double.points]
    for q in sorted(set(double.points) | set(extra_points), key=lambda p: p.sort_key):
        out.append((q, lifted(q)))
    return tuple(out)


def family_through(family, stage) -> tuple:
    """Points of a ``(point, members)`` family whose members hold ``stage``, first place kept."""
    return tuple(dict.fromkeys(q for q, members in family if stage in members))


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
