"""Finite preorders of basic opens, sieves, and inductively generated covers.

Everything here is deliberately small: a basis is a finite, explicitly
enumerated preorder, a sieve is carried by a finite generator antichain with
membership decided through the order, and cover questions are settled by
saturating an inductive definition over the fragment below the root.  All
values are immutable after construction, so they can be shared freely and
cached results are safe to reuse.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Hashable, Iterable, Mapping

Element = Hashable


class UnknownElement(KeyError):
    """An element was used with a basis that does not enumerate it."""


class CoveringAxiomViolation(ValueError):
    """A covering system fails the stability axiom at some (p, family, q)."""

    def __init__(self, p: Element, family: tuple, q: Element):
        self.p, self.family, self.q = p, family, q
        super().__init__(
            f"no family at {q!r} refines the restriction of {family!r} at {p!r}"
        )


class NotDerivable(ValueError):
    """The requested element is not reachable by the inductive definition."""


class NotACover(ValueError):
    """An operation required a covering sieve but the cover test failed."""


class HypothesisFails(ValueError):
    """The inductive hypothesis of cover induction fails at a concrete node."""

    def __init__(self, element: Element, family: tuple | None):
        self.element, self.family = element, family
        if family is None:
            msg = f"predicate fails on the cover member {element!r}"
        else:
            msg = f"predicate not preserved at {element!r} along family {family!r}"
        super().__init__(msg)


def element_key(x: Element):
    """Total sort key making iteration order canonical across mixed element types."""
    if isinstance(x, tuple):
        return (0, len(x), x)
    if isinstance(x, bool):
        return (2, str(x))
    if isinstance(x, int):
        return (1, x)
    if isinstance(x, str):
        return (2, x)
    sk = getattr(x, "sort_key", None)
    if sk is not None:
        return (3, sk)
    return (4, repr(x))


class Basis:
    """A finite preorder of basic opens with a decidable order relation.

    ``leq(a, b)`` reads "a lies below b"; reflexivity and transitivity are
    required and can be verified with :meth:`validate`.
    """

    def __init__(self, elements: Iterable[Element], leq: Callable[[Element, Element], bool]):
        self._elements = tuple(sorted(set(elements), key=element_key))
        self._index = frozenset(self._elements)
        self._leq = leq
        self._down: dict[Element, tuple] = {}
        self._up: dict[Element, tuple] = {}

    @property
    def elements(self) -> tuple:
        return self._elements

    def __contains__(self, x: Element) -> bool:
        return x in self._index

    def __len__(self) -> int:
        return len(self._elements)

    def require(self, x: Element) -> None:
        if x not in self._index:
            raise UnknownElement(x)

    def leq(self, a: Element, b: Element) -> bool:
        return self._leq(a, b)

    def down(self, a: Element) -> tuple:
        """All enumerated elements below ``a``, in canonical order."""
        got = self._down.get(a)
        if got is None:
            self.require(a)
            got = tuple(v for v in self._elements if self._leq(v, a))
            self._down[a] = got
        return got

    def disjoint(self, a: Element, b: Element) -> bool:
        """No enumerated element lies below both ``a`` and ``b``."""
        return not (set(self.down(a)) & set(self.down(b)))

    def up(self, a: Element) -> tuple:
        got = self._up.get(a)
        if got is None:
            self.require(a)
            got = tuple(v for v in self._elements if self._leq(a, v))
            self._up[a] = got
        return got

    def validate(self) -> None:
        """Check reflexivity and transitivity on the enumerated elements."""
        for a in self._elements:
            if not self._leq(a, a):
                raise ValueError(f"order not reflexive at {a!r}")
        for a in self._elements:
            for b in self.up(a):
                for c in self.up(b):
                    if not self._leq(a, c):
                        raise ValueError(f"order not transitive through {a!r} <= {b!r} <= {c!r}")


@dataclass(frozen=True)
class Sieve:
    """A downward closed set of basic opens below ``root``.

    Only the generator antichain is stored; membership of ``v`` means
    ``v <= g`` for some generator ``g``.  Construction normalizes arbitrary
    generator lists, so equal sieves compare equal structurally.
    """

    basis: Basis
    root: Element
    generators: tuple

    @staticmethod
    def from_generators(basis: Basis, root: Element, gens: Iterable[Element]) -> "Sieve":
        basis.require(root)
        leq = basis.leq
        inside = []
        for g in gens:
            basis.require(g)
            if leq(g, root):
                inside.append(g)
        # collapse order-equivalent generators to the canonically least one
        inside = sorted(set(inside), key=element_key)
        chosen: list = []
        for g in inside:
            if any(leq(g, h) and leq(h, g) for h in chosen):
                continue
            chosen.append(g)
        # drop generators strictly below another generator
        kept = tuple(
            g for g in chosen
            if not any(h is not g and leq(g, h) and not leq(h, g) for h in chosen)
        )
        return Sieve(basis, root, kept)

    @staticmethod
    def maximal(basis: Basis, root: Element) -> "Sieve":
        return Sieve.from_generators(basis, root, (root,))

    @staticmethod
    def empty(basis: Basis, root: Element) -> "Sieve":
        basis.require(root)
        return Sieve(basis, root, ())

    def contains(self, v: Element) -> bool:
        leq = self.basis.leq
        return any(leq(v, g) for g in self.generators)

    @cached_property
    def members(self) -> tuple:
        return tuple(v for v in self.basis.down(self.root) if self.contains(v))

    def restrict(self, b: Element) -> "Sieve":
        """The sieve ``{v <= b : v in self}`` rooted at ``b``."""
        self.basis.require(b)
        return Sieve.from_generators(
            self.basis, b, (v for v in self.basis.down(b) if self.contains(v))
        )

    def same_members(self, other: "Sieve") -> bool:
        return self.root == other.root and set(self.members) == set(other.members)

    def __repr__(self) -> str:
        return f"Sieve(root={self.root!r}, generators={list(self.generators)!r})"


# ---------------------------------------------------------------------------
# Inductive definitions over a finite carrier


@dataclass(frozen=True)
class InductiveDefinition:
    """A finite rule set ``(premises, conclusion)`` over a finite carrier."""

    carrier: tuple
    rules: tuple

    def __post_init__(self):
        carrier = frozenset(self.carrier)
        object.__setattr__(self, "carrier", tuple(sorted(carrier, key=element_key)))
        norm = []
        for premises, conclusion in self.rules:
            prem = frozenset(premises)
            if not prem <= carrier:
                raise UnknownElement(sorted(prem - carrier, key=element_key)[0])
            if conclusion not in carrier:
                raise UnknownElement(conclusion)
            norm.append((prem, conclusion))
        object.__setattr__(self, "rules", tuple(norm))


def inductive_close(phi: InductiveDefinition, start: Iterable[Element]) -> frozenset:
    """Least class containing ``start`` and closed under the rules of ``phi``."""
    closed = set(start)
    carrier = frozenset(phi.carrier)
    for x in closed:
        if x not in carrier:
            raise UnknownElement(x)
    pending = [r for r in phi.rules if r[1] not in closed]
    changed = True
    while changed:
        changed = False
        still = []
        for premises, conclusion in pending:
            if conclusion in closed:
                continue
            if premises <= closed:
                closed.add(conclusion)
                changed = True
            else:
                still.append((premises, conclusion))
        pending = still
    return frozenset(closed)


def set_compactness_witness(
    phi: InductiveDefinition, start: Iterable[Element], a: Element
) -> frozenset:
    """Smallest-by-size subset ``V`` of ``start`` with ``a`` still derivable from ``V``.

    Subsets are searched in increasing size and canonical order, so the result
    is deterministic.  Raises :class:`NotDerivable` when ``a`` is not in the
    closure of ``start`` itself.
    """
    base = tuple(sorted(set(start), key=element_key))
    if a not in inductive_close(phi, base):
        raise NotDerivable(a)
    for size in range(len(base) + 1):
        for subset in itertools.combinations(base, size):
            if a in inductive_close(phi, subset):
                return frozenset(subset)
    raise AssertionError("unreachable: full start set already derives the element")


# ---------------------------------------------------------------------------
# Covering systems and the topologies they generate


class CoveringSystem:
    """Finitely many covering families attached to each basic open.

    Families are finite subsets of the downset of their element.  The covering
    axiom (every family restricts along the order) is what makes the generated
    cover relation stable; :meth:`validate` checks it on the enumerated data.
    """

    def __init__(self, basis: Basis, families: Mapping[Element, Iterable[Iterable[Element]]]):
        self.basis = basis
        table: dict[Element, tuple] = {}
        for a, fams in families.items():
            basis.require(a)
            packed = []
            for fam in fams:
                fam_t = tuple(sorted(set(fam), key=element_key))
                for x in fam_t:
                    basis.require(x)
                    if not basis.leq(x, a):
                        raise ValueError(f"family member {x!r} is not below {a!r}")
                packed.append(fam_t)
            table[a] = tuple(packed)
        self._table = table

    def families_at(self, a: Element) -> tuple:
        self.basis.require(a)
        return self._table.get(a, ())

    def validate(self) -> None:
        """Covering axiom: families restrict along the order.

        For every family ``alpha`` at ``p`` and every ``q <= p`` some family at
        ``q`` must lie inside ``{r <= q : r <= some member of alpha}``.
        """
        basis = self.basis
        for p in basis.elements:
            for alpha in self.families_at(p):
                for q in basis.down(p):
                    restriction = {
                        r for r in basis.down(q) if any(basis.leq(r, x) for x in alpha)
                    }
                    if not any(
                        all(b in restriction for b in beta) for beta in self.families_at(q)
                    ):
                        raise CoveringAxiomViolation(p, alpha, q)


@dataclass(frozen=True)
class CoverResult:
    """Verdict of a cover test.

    ``covered`` is only ever True on the strength of an actual derivation.
    ``exhausted`` marks the case where a derivation exists but is deeper than
    the supplied fuel, so the caller sees "not covered within fuel" rather
    than a refutation.
    """

    covered: bool
    depth: int | None = None
    exhausted: bool = False
    frontier: tuple = ()

    def __bool__(self) -> bool:
        return self.covered


class Topology:
    """Decision procedure for covering sieves over a basis."""

    def __init__(self, basis: Basis):
        self.basis = basis

    def cover(self, a: Element, sieve: Sieve, fuel: int | None = None) -> CoverResult:
        raise NotImplementedError

    def basic_covers(self, a: Element):
        """Enumerated presentation of the covers of ``a``, or None if absent."""
        return None


class GeneratedTopology(Topology):
    """Cover relation inductively generated by a covering system.

    A sieve covers ``a`` when ``a`` is reachable from the sieve's members by
    the rules "each family together derives its element".  Saturation over the
    fragment below ``a`` computes the minimal derivation depth of every
    element, so fuel acts as a pure depth cutoff and never flips a verdict.
    """

    def __init__(self, system: CoveringSystem, default_fuel: int | None = None):
        super().__init__(system.basis)
        self.system = system
        self.default_fuel = default_fuel
        self._depths: dict[tuple, Mapping[Element, int]] = {}

    def _depth_map(self, a: Element, sieve: Sieve) -> Mapping[Element, int]:
        key = (a, sieve.root, sieve.generators)
        got = self._depths.get(key)
        if got is not None:
            return got
        basis = self.basis
        fragment = basis.down(a)
        depths: dict[Element, int] = {v: 0 for v in fragment if sieve.contains(v)}
        rules = [
            (v, alpha)
            for v in fragment
            for alpha in self.system.families_at(v)
        ]
        changed = True
        while changed:
            changed = False
            for v, alpha in rules:
                if any(x not in depths for x in alpha):
                    continue
                cand = 1 + max((depths[x] for x in alpha), default=0)
                if depths.get(v, cand + 1) > cand:
                    depths[v] = cand
                    changed = True
        self._depths[key] = depths
        return depths

    def cover(self, a: Element, sieve: Sieve, fuel: int | None = None) -> CoverResult:
        self.basis.require(a)
        if fuel is None:
            fuel = self.default_fuel
        depths = self._depth_map(a, sieve)
        depth = depths.get(a)
        if depth is None:
            missing = tuple(
                v for v in self.basis.down(a) if v not in depths
            )
            return CoverResult(False, frontier=missing)
        if fuel is not None and depth > fuel:
            return CoverResult(False, depth=depth, exhausted=True)
        return CoverResult(True, depth=depth)

    def derivation(self, a: Element, sieve: Sieve, fuel: int | None = None):
        """Minimal-depth derivation tree for a covered instance.

        Nodes are ``("base", v)`` for sieve members and
        ``("rule", v, alpha, children)`` otherwise; the first family in
        enumeration order whose premises all derive strictly earlier is used,
        which keeps transcripts deterministic.
        """
        result = self.cover(a, sieve, fuel)
        if not result.covered:
            raise NotACover(f"{sieve!r} does not cover {a!r}")
        depths = self._depth_map(a, sieve)

        def build(v):
            if sieve.contains(v):
                return ("base", v)
            dv = depths[v]
            for alpha in self.system.families_at(v):
                if all(depths.get(x, dv) < dv for x in alpha):
                    return ("rule", v, alpha, tuple(build(x) for x in alpha))
            raise AssertionError("depth map inconsistent with rules")

        return build(a)


def generate_topology(
    system: CoveringSystem, fuel: int | None = None, validate: bool = True
) -> GeneratedTopology:
    """Build the generated topology of a covering system.

    The covering axiom is verified first (set ``validate=False`` to skip when
    the system is known good, for example because it was just repaired).
    """
    if validate:
        system.validate()
    return GeneratedTopology(system, default_fuel=fuel)


@dataclass(frozen=True)
class InductionTranscript:
    """Replayable record of a cover induction run."""

    root: Element
    sieve_generators: tuple
    tree: tuple  # derivation tree annotated with predicate verdicts


def cover_induction(
    system: CoveringSystem,
    predicate: Callable[[Element], bool],
    a: Element,
    sieve: Sieve,
    fuel: int | None = None,
) -> InductionTranscript:
    """Propagate a predicate from a covering sieve up to its root.

    Requires the predicate to hold on the sieve and to be preserved by every
    covering family on the enumerated basis; the returned transcript replays
    the cover derivation with the predicate verified at every node.
    """
    basis = system.basis
    topology = GeneratedTopology(system)
    for x in basis.elements:
        for alpha in system.families_at(x):
            if all(predicate(y) for y in alpha) and not predicate(x):
                raise HypothesisFails(x, alpha)
    for y in sieve.members:
        if not predicate(y):
            raise HypothesisFails(y, None)
    if not topology.cover(a, sieve, fuel).covered:
        raise NotACover(f"{sieve!r} does not cover {a!r}")
    derivation = topology.derivation(a, sieve, fuel)

    def annotate(node):
        if node[0] == "base":
            return ("base", node[1], True)
        _, v, alpha, children = node
        return ("rule", v, alpha, True, tuple(annotate(c) for c in children))

    return InductionTranscript(a, sieve.generators, annotate(derivation))


def recheck_cover_induction(
    transcript: InductionTranscript,
    system: CoveringSystem,
    predicate: Callable[[Element], bool],
    sieve: Sieve,
) -> bool:
    """Independently re-verify a cover induction transcript node by node."""

    def walk(node) -> bool:
        if node[0] == "base":
            _, v, _ = node
            return sieve.contains(v) and predicate(v)
        _, v, alpha, _, children = node
        if alpha not in system.families_at(v):
            return False
        if tuple(c[1] for c in children) != alpha:
            return False
        return predicate(v) and all(walk(c) for c in children)

    return transcript.tree[1] == transcript.root and walk(transcript.tree)


# ---------------------------------------------------------------------------
# Spaces and axiom checking


@dataclass(frozen=True)
class FormalSpace:
    """A basis together with a cover decision procedure."""

    basis: Basis
    topology: Topology
    system: CoveringSystem | None = None


def sieves_on(
    basis: Basis, a: Element, cap: int = 256, rng=None
) -> list[Sieve]:
    """Deterministic family of sieves on ``a`` used for sampling checks.

    Enumerates all downclosures of subsets of the fragment below ``a`` when
    that is affordable, otherwise draws a seeded sample of generator sets.
    """
    fragment = basis.down(a)
    seen = {}
    if 2 ** len(fragment) <= cap or rng is None:
        pool = []
        for size in range(len(fragment) + 1):
            pool.extend(itertools.combinations(fragment, size))
            if len(pool) > cap:
                break
        subsets = pool[:cap]
    else:
        subsets = [()]
        for _ in range(cap - 1):
            size = rng.randint(1, len(fragment))
            subsets.append(tuple(rng.sample(fragment, size)))
    for subset in subsets:
        s = Sieve.from_generators(basis, a, subset)
        seen[(s.root, s.generators)] = s
    return [seen[k] for k in sorted(seen, key=lambda k: (len(k[1]), element_key(k[0]), tuple(map(element_key, k[1]))))]


@dataclass(frozen=True)
class AxiomReport:
    checked: int
    maximality_failures: tuple
    stability_failures: tuple
    local_character_failures: tuple

    @property
    def ok(self) -> bool:
        return not (
            self.maximality_failures
            or self.stability_failures
            or self.local_character_failures
        )


def check_topology_axioms(
    space: FormalSpace,
    sieve_cap: int = 64,
    rng=None,
    fuel: int | None = None,
) -> AxiomReport:
    """Verify maximality, stability, and local character on enumerated data.

    Stability and local character quantify over a deterministic sieve sample
    per root (all sieves when the fragment is small).  For a correctly
    generated topology every instance must pass; any failure is reported with
    its witnesses.
    """
    basis, topology = space.basis, space.topology
    checked = 0
    max_fail, stab_fail, local_fail = [], [], []
    samples = {a: sieves_on(basis, a, cap=sieve_cap, rng=rng) for a in basis.elements}
    for a in basis.elements:
        checked += 1
        if not topology.cover(a, Sieve.maximal(basis, a), fuel).covered:
            max_fail.append(a)
    for a in basis.elements:
        covered_here = [s for s in samples[a] if topology.cover(a, s, fuel).covered]
        for s in covered_here:
            for b in basis.down(a):
                checked += 1
                if not topology.cover(b, s.restrict(b), fuel).covered:
                    stab_fail.append((a, s.generators, b))
        for r in covered_here:
            for s in samples[a]:
                checked += 1
                if all(
                    topology.cover(b, s.restrict(b), fuel).covered for b in r.members
                ):
                    if not topology.cover(a, s, fuel).covered:
                        local_fail.append((a, r.generators, s.generators))
    return AxiomReport(checked, tuple(max_fail), tuple(stab_fail), tuple(local_fail))
