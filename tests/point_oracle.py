"""Reference oracles for point incidence: scans that ask each point directly.

The package reads "which points pass through this open" off one index built
from each point's prefix chain (``points.incidence``) and sees a stream in
the target tree through its prefix chain.  These oracles recompute both the
way the package once did, by asking ``Point.passes_through`` of every
candidate, so the tests can compare the two.
"""
from sheafbench.double import DOpen
from sheafbench.spaces import all_sequences, seq_leq


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
