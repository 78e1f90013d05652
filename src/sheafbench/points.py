"""Points of a truncated space, read as the prefix chains of streams.

A point is carried by an eventually constant stream: a finite prefix followed
by a constant tail.  Its basic-open members are the prefixes of that stream
that fit inside the truncated basis, a chain, and :func:`incidence` turns the
chains of a point family into one index from each open to the points
passing through it.  Every stream with entries inside the branching is a
point, a lemma the tests prove, so nothing here tests pointhood.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

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
        return self.prefix[:length] + (self.tail,) * max(0, length - len(self.prefix))

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
