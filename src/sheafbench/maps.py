"""Continuous maps between formal spaces, given by basic-open relations.

A map is a relation F between the bases of two spaces, read as "p is inside
the preimage of q".  Five conditions make such a relation continuous:

  1. compatibility with both orders (down in the source, up in the target);
  2. total definedness up to a cover;
  3. directedness of images up to a cover;
  4. preimages of covers cover;
  5. preimages of single basic opens are closed for the source topology.

Constructors saturate a seed relation under (1) and (5), which never changes
the induced map and makes checking the remaining conditions meaningful.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .site import Basis, FormalSpace, GeneratedTopology, CoveringSystem, Sieve, element_key
from .points import member_set


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

    @staticmethod
    def from_pairs(
        source: FormalSpace, target: FormalSpace, pairs: Iterable[tuple]
    ) -> "ContinuousMap":
        """The map a seed relation induces, saturated to canonical form."""
        seed = set()
        for p, q in pairs:
            source.basis.require(p)
            target.basis.require(q)
            seed.add((p, q))
        return ContinuousMap(source, target, frozenset(_saturate(source, target, seed)))

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


def _saturate(source: FormalSpace, target: FormalSpace, seed: set) -> set:
    """Close a seed relation under order compatibility and fiber closure."""
    pairs = set(seed)
    while True:
        pairs = {
            (p2, q2)
            for (p, q) in pairs
            for p2 in source.basis.down(p)
            for q2 in target.basis.up(q)
        }
        grew = False
        for q in target.basis.elements:
            fiber = {p for (p, y) in pairs if y == q}
            if not fiber:
                continue
            for a in source.basis.elements:
                if a in fiber:
                    continue
                below = Sieve.from_generators(source.basis, a, fiber)
                if source.topology.cover(a, below).covered:
                    pairs.add((a, q))
                    grew = True
        if not grew:
            return pairs


@dataclass(frozen=True)
class MapCheck:
    ok: bool
    failures: tuple  # (condition number, witness) pairs


def check_continuous_map(fmap: ContinuousMap, max_failures: int = 8) -> MapCheck:
    """Test all five conditions on the enumerated data.

    Condition 4 is quantified over the target's covering families, which
    generate its covers; the other conditions are checked outright.
    """
    src, tgt = fmap.source, fmap.target
    failures = []

    def report(cond, witness) -> bool:
        failures.append((cond, witness))
        return len(failures) >= max_failures

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


def identity_map(space: FormalSpace) -> ContinuousMap:
    """p related to q exactly when the part of p under q covers p."""
    pairs = set()
    whole = {q: Sieve.maximal(space.basis, q) for q in space.basis.elements}
    for p in space.basis.elements:
        for q in space.basis.elements:
            if space.topology.cover(p, whole[q].restrict(p)).covered:
                pairs.add((p, q))
    return ContinuousMap(space, space, frozenset(pairs))


def compose_maps(f: ContinuousMap, g: ContinuousMap) -> ContinuousMap:
    """Relational composite of f then g, saturated back to canonical form."""
    if f.target.basis.elements != g.source.basis.elements:
        raise ValueError("composition needs matching middle bases")
    seed = {
        (p, r)
        for (p, q) in f.pairs
        for r in g.image(q)
    }
    return ContinuousMap.from_pairs(f.source, g.target, seed)


def discrete_space(labels: Iterable) -> FormalSpace:
    """Flat space: order is equality and a sieve covers iff it contains."""
    basis = Basis({a: (a,) for a in labels})
    system = CoveringSystem(basis, {})
    return FormalSpace(basis, GeneratedTopology(system), system)


STAR = "*"


def one_point_space() -> FormalSpace:
    return discrete_space((STAR,))


def point_as_map(space: FormalSpace, subject) -> ContinuousMap:
    """A candidate point packaged as a map from the one-point space.

    The subject is taken literally (saturation cannot repair it), so the
    continuity check fails exactly when pointhood does.
    """
    one = one_point_space()
    pairs = frozenset((STAR, u) for u in member_set(space, subject))
    return ContinuousMap(one, space, pairs)


def pt_functor(fmap: ContinuousMap, point_sets: Iterable[frozenset]) -> dict:
    """Image of each point (given by its member set) under the map."""
    out = {}
    for alpha in point_sets:
        members = frozenset(alpha)
        image = frozenset(
            q for q in fmap.target.basis.elements
            if any(fmap.related(p, q) for p in members)
        )
        out[members] = image
    return out
