"""Continuous maps between formal spaces, given by basic-open relations.

A map is a relation F between the bases of two spaces, read as "p is inside
the preimage of q".  Five conditions make such a relation continuous:

  1. compatibility with both orders (down in the source, up in the target);
  2. total definedness up to a cover;
  3. directedness of images up to a cover;
  4. preimages of covers cover;
  5. preimages of single basic opens are closed for the source topology.

The package builds one kind of map, a section read as a map into the
discrete space of its values (``sheaves.section_to_map``).  Saturation,
identity, composition and the action on points are constructions only the
tests use; they live in ``tests/map_oracle.py``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .site import Basis, FormalSpace, GeneratedTopology, CoveringSystem, Sieve, element_key


def _pair_key(pair):
    p, q = pair
    return (element_key(p), element_key(q))


@dataclass(frozen=True)
class ContinuousMap:
    source: FormalSpace
    target: FormalSpace
    pairs: frozenset

    _images: dict = field(default_factory=dict, compare=False, repr=False)
    _fibers: dict = field(default_factory=dict, compare=False, repr=False)

    def related(self, p, q) -> bool:
        return (p, q) in self.pairs

    def image(self, p) -> tuple:
        got = self._images.get(p)
        if got is None:
            got = tuple(
                sorted((q for (x, q) in self.pairs if x == p), key=element_key)
            )
            self._images[p] = got
        return got

    def fiber(self, q) -> tuple:
        got = self._fibers.get(q)
        if got is None:
            got = tuple(
                sorted((p for (p, y) in self.pairs if y == q), key=element_key)
            )
            self._fibers[q] = got
        return got

    def sorted_pairs(self) -> tuple:
        return tuple(sorted(self.pairs, key=_pair_key))


@dataclass(frozen=True)
class MapCheck:
    ok: bool
    failures: tuple  # (condition number, witness) pairs


def check_continuous_map(fmap: ContinuousMap) -> MapCheck:
    """Test all five conditions on the enumerated data.

    Condition 4 is quantified over the target's covering families, which
    generate its covers; the other conditions are checked outright.  The
    check stops at the eighth failure.
    """
    src, tgt = fmap.source, fmap.target
    failures = []

    def report(cond, witness) -> bool:
        failures.append((cond, witness))
        return len(failures) >= 8

    for (p, q) in fmap.sorted_pairs():
        for p2 in src.basis.down(p):
            if not fmap.related(p2, q):
                if report(1, (p, q, p2)):
                    return MapCheck(False, tuple(failures))
        for q2 in tgt.basis.up(q):
            if not fmap.related(p, q2):
                if report(1, (p, q, q2)):
                    return MapCheck(False, tuple(failures))

    for p in src.basis.elements:
        defined = [p2 for p2 in src.basis.down(p) if fmap.image(p2)]
        s = Sieve.from_generators(src.basis, p, defined)
        if not src.topology.cover(p, s).covered:
            if report(2, (p,)):
                return MapCheck(False, tuple(failures))

    for p in src.basis.elements:
        img = fmap.image(p)
        for i, q1 in enumerate(img):
            for q2 in img[i:]:
                common = tgt.basis.below(q1) & tgt.basis.below(q2)
                refined = [
                    p2
                    for p2 in src.basis.down(p)
                    if not common.isdisjoint(fmap.image(p2))
                ]
                s = Sieve.from_generators(src.basis, p, refined)
                if not src.topology.cover(p, s).covered:
                    if report(3, (p, q1, q2)):
                        return MapCheck(False, tuple(failures))

    if tgt.system is not None:
        for (p, q) in fmap.sorted_pairs():
            for fam in tgt.system.families_at(q):
                covered = Sieve.from_generators(tgt.basis, q, fam).members
                pulled = [
                    p2
                    for p2 in src.basis.down(p)
                    if not covered.isdisjoint(fmap.image(p2))
                ]
                s = Sieve.from_generators(src.basis, p, pulled)
                if not src.topology.cover(p, s).covered:
                    if report(4, (p, q, fam)):
                        return MapCheck(False, tuple(failures))

    for q in tgt.basis.elements:
        fiber = set(fmap.fiber(q))
        if not fiber:
            continue
        for a in src.basis.elements:
            if a in fiber:
                continue
            below = Sieve.from_generators(src.basis, a, fiber)
            if src.topology.cover(a, below).covered:
                if report(5, (a, q)):
                    return MapCheck(False, tuple(failures))

    return MapCheck(not failures, tuple(failures))


def discrete_space(labels: Iterable) -> FormalSpace:
    """Flat space: order is equality and a sieve covers iff it contains."""
    basis = Basis({a: (a,) for a in labels})
    system = CoveringSystem(basis, {})
    return FormalSpace(basis, GeneratedTopology(system), system)


STAR = "*"


def one_point_space() -> FormalSpace:
    return discrete_space((STAR,))
