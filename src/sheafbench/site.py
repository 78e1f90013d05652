"""Finite preorders of basic opens, sieves, and inductively generated covers.

Everything here is deliberately small: a basis is a finite preorder given
by the down-set of each element and nothing else, a sieve is its
member set (the union of its generators' down-sets), and every cover
question is read off one kernel per kind of space, :meth:`Topology.ranks`:
the least cover depth of each element a downward closed zone covers, which
for a covering system is one layered saturation of its rules over the whole
basis.  All values are immutable after construction, so they can be shared
freely and cached results are safe to reuse.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
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
    """A finite preorder of basic opens, given as the down-set of each element.

    ``below`` maps every element to the elements lying below it, so the
    elements are its keys and "a lies below b" reads ``a in below[b]``.
    Each down-set must name only elements and hold its own element; the
    sets must also be transitive, which the constructors that build them
    guarantee.  Every order question (``leq``, ``down``, ``up``,
    ``disjoint``) is a lookup in these sets.  ``bits`` reads the same order
    as int masks; a basis builds it only when asked, which only the sheaf
    layer does.
    """

    def __init__(self, below: Mapping[Element, Iterable[Element]]):
        self._below = {a: frozenset(s) for a, s in below.items()}
        self._elements = tuple(sorted(self._below, key=element_key))
        self._down: dict[Element, tuple] = {}
        self._up: dict[Element, tuple] = {}
        elements = self._below.keys()
        for a in self._elements:
            s = self._below[a]
            if a not in s:
                raise ValueError(f"the down-set of {a!r} leaves out {a!r}")
            if not s <= elements:
                raise UnknownElement(min(s - elements, key=element_key))

    @staticmethod
    def from_pairs(elements: Iterable[Element], pairs: Iterable[tuple]) -> "Basis":
        """The preorder generated by ``(a, b)`` pairs, each read "a lies below b".

        The order is the reflexive-transitive closure of the pairs.
        """
        below: dict = {a: {a} for a in elements}
        for a, b in pairs:
            below[b].add(a)
        changed = True
        while changed:
            changed = False
            for b in below:
                extra = set()
                for a in below[b]:
                    extra |= below[a]
                if not extra <= below[b]:
                    below[b] |= extra
                    changed = True
        return Basis(below)

    @property
    def elements(self) -> tuple:
        return self._elements

    def __contains__(self, x: Element) -> bool:
        return x in self._below

    def __len__(self) -> int:
        return len(self._elements)

    def require(self, x: Element) -> None:
        if x not in self._below:
            raise UnknownElement(x)

    def below(self, a: Element) -> frozenset:
        """The down-set of ``a``: every enumerated element below it."""
        try:
            return self._below[a]
        except KeyError:
            raise UnknownElement(a) from None

    def leq(self, a: Element, b: Element) -> bool:
        return a in self.below(b)

    def down(self, a: Element) -> tuple:
        """The down-set of ``a`` in canonical order."""
        got = self._down.get(a)
        if got is None:
            below = self.below(a)
            got = self._down[a] = tuple(v for v in self._elements if v in below)
        return got

    def disjoint(self, a: Element, b: Element) -> bool:
        """No enumerated element lies below both ``a`` and ``b``."""
        return self.below(a).isdisjoint(self.below(b))

    def up(self, a: Element) -> tuple:
        got = self._up.get(a)
        if got is None:
            self.require(a)
            got = tuple(v for v in self._elements if a in self.below(v))
            self._up[a] = got
        return got

    @cached_property
    def bits(self) -> "BitIndex":
        """The order as bit masks, built on first use."""
        return BitIndex(self)


class BitIndex:
    """A basis's order as int bit masks, bit ``i`` for its ``i``-th element.

    ``pos`` gives each element's position in canonical order, and ``down``
    and ``up`` hold, by position, the masks of the elements below and above
    it, so set algebra on the order is int arithmetic and the lowest bit of
    a mask is its first element in canonical order.
    """

    __slots__ = ("elements", "pos", "down", "up")

    def __init__(self, basis: Basis):
        self.elements = basis.elements
        pos = self.pos = {a: i for i, a in enumerate(self.elements)}
        down = self.down = [0] * len(pos)
        up = self.up = [0] * len(pos)
        for i, a in enumerate(self.elements):
            for v in basis.below(a):
                j = pos[v]
                down[i] |= 1 << j
                up[j] |= 1 << i

    def at(self, a: Element) -> int:
        """The position of ``a``."""
        try:
            return self.pos[a]
        except KeyError:
            raise UnknownElement(a) from None

    def mask(self, elems: Iterable[Element]) -> int:
        pos = self.pos
        got = 0
        for a in elems:
            got |= 1 << pos[a]
        return got


@dataclass(frozen=True)
class Sieve:
    """A downward closed set of basic opens below ``root``, held as its members.

    The members are the union of the down-sets of the generators that lie
    below the root, so membership is a set lookup, restriction intersects
    with a down-set, and equal sieves compare and hash equal.  The given
    generators are kept apart from comparisons; ``generators`` reads off the
    given ones that are maximal among the members, the first in canonical
    order of each order-equivalence class.
    """

    basis: Basis = field(compare=False)
    root: Element
    members: frozenset
    given: frozenset = field(compare=False)

    @staticmethod
    def from_generators(basis: Basis, root: Element, gens: Iterable[Element]) -> "Sieve":
        """The sieve on ``root`` generated by those of ``gens`` below it."""
        given = frozenset(gens)
        # a subset test against the keys reads only the generators
        if not given <= basis._below.keys():
            raise UnknownElement(min(given - basis._below.keys(), key=element_key))
        given &= basis.below(root)
        return Sieve(basis, root, frozenset().union(*map(basis.below, given)), given)

    @staticmethod
    def maximal(basis: Basis, root: Element) -> "Sieve":
        return Sieve.from_generators(basis, root, (root,))

    @staticmethod
    def empty(basis: Basis, root: Element) -> "Sieve":
        basis.require(root)
        return Sieve(basis, root, frozenset(), frozenset())

    @cached_property
    def generators(self) -> tuple:
        below = self.basis.below
        given = sorted(self.given, key=element_key)
        kept: list = []
        for g in given:
            # an earlier generator of its class, or one above it, was kept
            if any(g in below(h) for h in kept):
                continue
            if all(h in below(g) for h in given if g in below(h)):
                kept.append(g)
        return tuple(kept)

    def contains(self, v: Element) -> bool:
        return v in self.members

    def restrict(self, b: Element) -> "Sieve":
        """The sieve ``{v <= b : v in self}`` rooted at ``b``."""
        members = self.members & self.basis.below(b)
        return Sieve(self.basis, b, members, members)

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

    The constructor checks that every member lies below its element and sorts
    each family by :func:`element_key`; it is the path for data from outside
    the package (random systems, slices, maps).  The tree spaces and doubles
    build their families below their owners and in that order, and satisfy
    the covering axiom, by construction: they go through :meth:`_packed`,
    which checks nothing, and the tests prove instead that it gives the
    validating constructor's table and that :meth:`validate` passes.
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
                    if x not in basis.below(a):
                        raise ValueError(f"family member {x!r} is not below {a!r}")
                packed.append(fam_t)
            table[a] = tuple(packed)
        self._table = table

    @classmethod
    def _packed(cls, basis: Basis, table: dict) -> "CoveringSystem":
        """A system over ``table`` taken as it is: each family a tuple of
        distinct elements below its owner, in :func:`element_key` order."""
        system = cls.__new__(cls)
        system.basis = basis
        system._table = table
        return system

    def families_at(self, a: Element) -> tuple:
        self.basis.require(a)
        return self._table.get(a, ())

    def validate(self) -> None:
        """Covering axiom: families restrict along the order.

        For every family ``alpha`` at ``p`` and every ``q <= p`` some family at
        ``q`` must lie inside ``{r <= q : r <= some member of alpha}``.
        """
        basis, table = self.basis, self._table
        for p in basis.elements:
            for alpha in table.get(p, ()):
                generated = Sieve.from_generators(basis, p, alpha).members
                for q in basis.down(p):
                    restriction = generated & basis.below(q)
                    if not any(restriction.issuperset(beta) for beta in table.get(q, ())):
                        raise CoveringAxiomViolation(p, alpha, q)


@dataclass(frozen=True)
class CoverResult:
    """Verdict of a cover test.

    ``covered`` is only ever True on the strength of an actual derivation.
    """

    covered: bool
    depth: int | None = None
    frontier: tuple = ()

    def __bool__(self) -> bool:
        return self.covered


class Topology:
    """Decision procedure for covering sieves over a basis.

    Each kind of space gives one kernel, :meth:`ranks`; the sieve test
    :meth:`cover` and the zone test :meth:`covered` both read it.
    """

    def __init__(self, basis: Basis):
        self.basis = basis

    def ranks(self, zone) -> Mapping[Element, int]:
        """Every element a downward closed ``zone`` covers, with its least cover depth.

        The entry of ``a`` depends only on ``zone & below(a)``, so one map
        answers the cover question of every element at once.
        """
        raise NotImplementedError

    def _scope(self, a: Element) -> Iterable[Element]:
        """The elements below ``a`` a failing cover of ``a`` lists when uncovered."""
        return self.basis.down(a)

    def cover(self, a: Element, sieve: Sieve) -> CoverResult:
        """Whether ``sieve`` covers ``a``: its least depth, or else the frontier."""
        self.basis.require(a)
        ranks = self.ranks(sieve.members)
        depth = ranks.get(a)
        if depth is None:
            return CoverResult(False, frontier=tuple(v for v in self._scope(a) if v not in ranks))
        return CoverResult(True, depth=depth)

    def covered(self, zone) -> frozenset:
        """Every element ``a`` whose sieve ``zone & below(a)`` covers ``a``."""
        return frozenset(self.ranks(zone))


class GeneratedTopology(Topology):
    """Cover relation inductively generated by a covering system.

    A sieve covers ``a`` when ``a`` is reachable from the sieve's members by
    the rules "each family together derives its element"; an element's rank
    is its minimal derivation depth.  Ranks are kept per zone, since the
    axiom checks ask about the same few sieves many times over.
    """

    def __init__(self, system: CoveringSystem):
        super().__init__(system.basis)
        self.system = system
        self._ranks: dict[frozenset, Mapping[Element, int]] = {}

    @cached_property
    def _rules(self) -> tuple:
        """Every (element, family) rule, and the rules each element is a premise of."""
        rules = [(v, alpha) for v in self.basis.elements
                 for alpha in self.system.families_at(v)]
        uses: dict = {}
        for i, (_, alpha) in enumerate(rules):
            for x in alpha:
                uses.setdefault(x, []).append(i)
        return tuple(rules), uses

    def ranks(self, zone) -> Mapping[Element, int]:
        """One saturation of ``zone`` over the whole basis, a layer per depth.

        A family's members all lie below its element, so a derivation of
        ``a`` from ``zone`` only uses ``zone & below(a)``.  Zone elements
        have rank 0; a rule whose last premise is ranked in layer ``d``
        ranks its element ``d + 1`` unless it already has a rank.
        """
        zone = frozenset(zone)  # a frozenset itself is not copied
        got = self._ranks.get(zone)
        if got is not None:
            return got
        rules, uses = self._rules
        missing = [len(alpha) for _, alpha in rules]
        ranks = dict.fromkeys(zone, 0)
        layer = list(ranks)
        # an empty family derives its element from nothing, at depth 1
        heads = [v for v, alpha in rules if not alpha]
        depth = 0
        while layer or heads:
            for x in layer:
                for i in uses.get(x, ()):
                    missing[i] -= 1
                    if not missing[i]:
                        heads.append(rules[i][0])
            depth += 1
            layer = []
            for v in heads:
                if v not in ranks:
                    ranks[v] = depth
                    layer.append(v)
            heads = []
        self._ranks[zone] = ranks
        return ranks

    def derivation(self, a: Element, sieve: Sieve):
        """Minimal-depth derivation tree for a covered instance.

        Nodes are ``("base", v)`` for sieve members and
        ``("rule", v, alpha, children)`` otherwise; the first family in
        enumeration order whose premises all derive strictly earlier is used,
        which keeps transcripts deterministic.
        """
        self.basis.require(a)
        depths = self.ranks(sieve.members)
        if a not in depths:
            raise NotACover(f"{sieve!r} does not cover {a!r}")

        def build(v):
            if v in sieve.members:
                return ("base", v)
            dv = depths[v]
            for alpha in self.system.families_at(v):
                if all(depths.get(x, dv) < dv for x in alpha):
                    return ("rule", v, alpha, tuple(build(x) for x in alpha))
            raise AssertionError("depth map inconsistent with rules")

        return build(a)


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
) -> InductionTranscript:
    """Propagate a predicate from a covering sieve up to its root.

    Requires the predicate to hold on the sieve and to be preserved by every
    covering family on the enumerated basis; the returned transcript replays
    the cover derivation with the predicate verified at every node.
    """
    for x in system.basis.elements:
        for alpha in system.families_at(x):
            if all(predicate(y) for y in alpha) and not predicate(x):
                raise HypothesisFails(x, alpha)
    for y in sorted(sieve.members, key=element_key):
        if not predicate(y):
            raise HypothesisFails(y, None)
    derivation = GeneratedTopology(system).derivation(a, sieve)

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


def sieves_on(basis: Basis, a: Element, cap: int = 256) -> list[Sieve]:
    """Deterministic family of sieves on ``a`` used for sampling checks.

    The sieves generated by the first ``cap`` subsets of the fragment below
    ``a``, smallest subsets first: every sieve on ``a`` when the fragment
    has at most ``cap`` subsets.
    """
    fragment = basis.down(a)
    seen = {}
    pool = []
    for size in range(len(fragment) + 1):
        pool.extend(itertools.combinations(fragment, size))
        if len(pool) > cap:
            break
    for subset in pool[:cap]:
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


def check_topology_axioms(space: FormalSpace, sieve_cap: int = 64) -> AxiomReport:
    """Verify maximality, stability, and local character on enumerated data.

    Stability and local character quantify over a deterministic sieve sample
    per root (all sieves when the fragment is small).  For a correctly
    generated topology every instance must pass; any failure is reported with
    its witnesses.

    Each sample ``s`` on ``a`` is asked once whether it covers ``a`` and
    once, for each ``b <= a``, whether its restriction covers ``b``; both
    axioms read those verdicts.  The restricted verdicts come from the
    restricted zone ``s & below(b)``, not from the unrestricted ranks of
    ``s``: that the two agree (the entry of ``b`` depends only on
    ``zone & below(b)``) is the stability lemma, so reading one for the
    other would let a kernel that breaks it pass.
    """
    basis, topology = space.basis, space.topology
    checked = 0
    max_fail, stab_fail, local_fail = [], [], []
    samples = {a: sieves_on(basis, a, cap=sieve_cap) for a in basis.elements}
    for a in basis.elements:
        checked += 1
        if not topology.cover(a, Sieve.maximal(basis, a)).covered:
            max_fail.append(a)
    ranks, below = topology.ranks, basis.below
    for a in basis.elements:
        down, sample = basis.down(a), samples[a]
        # per sample s: the b <= a whose restriction of s covers b, and
        # whether s covers a
        local = [frozenset(b for b in down if b in ranks(s.members & below(b))) for s in sample]
        covers = [a in ranks(s.members) for s in sample]
        covered_here = [(s, restricted) for s, restricted, hit in zip(sample, local, covers) if hit]
        for s, restricted in covered_here:
            for b in down:
                checked += 1
                if b not in restricted:
                    stab_fail.append((a, s.generators, b))
        for r, _ in covered_here:
            for s, restricted, hit in zip(sample, local, covers):
                checked += 1
                if r.members <= restricted and not hit:
                    local_fail.append((a, r.generators, s.generators))
    return AxiomReport(checked, tuple(max_fail), tuple(stab_fail), tuple(local_fail))
