"""Constructions on continuous maps that only the tests use.

The package checks a map's five continuity conditions
(``maps.check_continuous_map``) and reads sections as maps into a discrete
space.  The paper's other map constructions live here, where the tests
check them against one another: saturation of a seed relation, identity and
composition, a point read as a map from the one-point space, the action of
a map on points, and the three canonical maps joining a double with its
ingredients.
"""
from dataclasses import dataclass
from typing import Iterable

from point_oracle import member_set
from sheafbench.double import DOpen, DoubleSpace, SingletonOpen
from sheafbench.maps import STAR, ContinuousMap, discrete_space, one_point_space
from sheafbench.points import point_members
from sheafbench.site import FormalSpace, Sieve


def map_from_pairs(
    source: FormalSpace, target: FormalSpace, pairs: Iterable[tuple]
) -> ContinuousMap:
    """The map a seed relation induces, saturated to canonical form."""
    seed = set()
    for p, q in pairs:
        source.basis.require(p)
        target.basis.require(q)
        seed.add((p, q))
    return ContinuousMap(source, target, frozenset(_saturate(source, target, seed)))


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
    return map_from_pairs(f.source, g.target, seed)


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
