"""Sheaves of locally constant values over a finite formal space.

A section over a basic open is a decomposition of that open into zones on
which the section is constant.  The canonical representative keeps, for each
value, the maximal opens of its zone, which makes equality of sections plain
tuple equality.  Values can be any hashable labels: naturals, finite
sequences, or eventually constant streams, which is how the sorts used by the
forcing interpreter all arise from one construction.

A zone is down-closed and cover-closed, so restricting to ``b`` needs no
cover test: each zone meets the down-set of ``b`` in the new zone.  That set
is cover-closed, since what it covers the old zone covers by transitivity of
the topology, which every ``FormalSpace`` here has.  Restriction reads only
the section's pieces.  (i) If ``b`` lies below a piece ``p``, the whole
down-set of ``b`` lies in the zone of ``p``'s value, and zones are
disjoint, so the restriction is constant there; its one piece is the first
element of ``b``'s class.  (ii) Otherwise every piece of the restriction is
a piece ``p <= b`` of the section, or a maximal element of the meet of the
down-sets of ``b`` and of a piece not below ``b``.  On tree spaces and
their doubles two down-sets meet only when one element lies below the
other, so the second kind never occurs; random preorders have it.

Zones are held as bit masks over the basis's canonical order
(``Basis.bits``).  A zone's pieces are found by walking it from its lowest
bit and dropping the down-set of each element reached; on tree spaces and
doubles canonical order lists every open before those below it, so the
walk reaches exactly the pieces.

A presheaf's sections need no cover test either.  Its atoms cover the root
``a``, so their sieve cut down to any ``w`` below ``a`` covers ``w``; call the
atoms whose down-sets meet ``below(w)`` the reach of ``w``.  Positivity makes
the reach non-empty.  Under an assignment of values to the atoms, ``w`` lies
in the zone of ``v`` exactly when every atom in its reach carries ``v``: then
the atoms carrying ``v`` cover ``w``; and if some atom in the reach carries
another value, an open below both ``w`` and that atom would lie in two zones,
which disjoint zones rule out.

The space is assumed positive (no open is covered by the empty sieve); all
spaces built in this package are.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .site import Basis, BitIndex, CoveringSystem, FormalSpace, Sieve, element_key, sieves_on
from .points import Point
from .spaces import TruncatedSpace, all_sequences, bracket
from .double import DOpen, DoubleSpace, SingletonOpen
from .maps import ContinuousMap, check_continuous_map, discrete_space


class IncompatibleAssignment(ValueError):
    """Two zones with different values overlap."""


class NotASection(ValueError):
    """The assigned zones fail to cover the root."""


class EmptyCoverPresent(ValueError):
    """Some open is covered by the empty sieve, so zones cannot be disjoint."""


@dataclass(frozen=True)
class NatSection:
    """Locally constant section in canonical (maximal-zone) form."""

    root: object
    pieces: tuple  # ((element, value), ...) with maximal zone elements

    def __post_init__(self):
        # restriction caches and fingerprints hash a section on every lookup
        object.__setattr__(self, "_hash", hash((self.root, self.pieces)))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        body = ", ".join(f"{elem!r}:{val!r}" for elem, val in self.pieces)
        return f"<section@{self.root!r} {body}>"


def _from_zones(index: BitIndex, root, zones: Mapping) -> NatSection:
    """The section on ``root`` holding each value on its zone, a bit mask.

    Zones are down-closed and pairwise disjoint; the pieces are each zone's
    maximal elements, the first in canonical order of each class.  Each zone
    is walked from its lowest bit, and the down-set of every element reached
    is dropped from the rest of the walk: an element below one reached
    earlier is neither maximal nor the first of its class, so an element
    reached is the first of its class in the zone, and a piece exactly when
    nothing of the zone above it lies outside its down-set.
    """
    down, up = index.down, index.up
    found = {}
    for value, zone in zones.items():
        rest = zone
        while rest:
            i = (rest & -rest).bit_length() - 1
            if not zone & up[i] & ~down[i]:
                found[i] = value
            rest &= ~down[i]
    elements = index.elements
    return NatSection(root, tuple((elements[i], found[i]) for i in sorted(found)))


def make_section(space: FormalSpace, root, assignments) -> NatSection:
    """Canonicalize an assignment of values to opens below ``root``.

    The zone of a value is everything covered by the opens carrying it; the
    zones must be pairwise disjoint and jointly cover the root.  A zone is
    read off one ``Topology.covered`` of the value's sieve: an element's
    entry there depends only on the sieve's part below it, which is the
    stability lemma.
    """
    basis = space.basis
    basis.require(root)
    below_root = basis.below(root)
    if isinstance(assignments, Mapping):
        assignments = tuple(assignments.items())
    gens_by_value: dict = {}
    for elem, value in assignments:
        basis.require(elem)
        if elem not in below_root:
            raise NotASection(f"{elem!r} is not below the root {root!r}")
        gens_by_value.setdefault(value, []).append(elem)

    all_gens = [e for gens in gens_by_value.values() for e in gens]
    if not space.topology.cover(root, Sieve.from_generators(basis, root, all_gens)).covered:
        raise NotASection(f"assigned opens do not cover {root!r}")

    index = basis.bits
    root_down = index.down[index.pos[root]]
    zones: dict = {}
    taken = 0
    for value in sorted(gens_by_value, key=element_key):
        full = Sieve.from_generators(basis, root, gens_by_value[value])
        zone = index.mask(space.topology.covered(full.members)) & root_down
        clash = zone & taken
        if clash:
            i = (clash & -clash).bit_length() - 1
            earlier = next(v for v, z in zones.items() if z >> i & 1)
            raise IncompatibleAssignment(
                f"{index.elements[i]!r} lies in the zones of {earlier!r} and {value!r}"
            )
        zones[value] = zone
        taken |= zone
    return _from_zones(index, root, zones)


def value_at(space: FormalSpace, section: NatSection, x):
    """The section's constant value near ``x``, or None if x straddles zones."""
    space.basis.require(x)
    for elem, val in section.pieces:
        if x in space.basis.below(elem):
            return val
    return None


def restrict_section(space: FormalSpace, section: NatSection, b) -> NatSection:
    """The section cut down to ``b``, with no cover test, from its pieces alone.

    Each value's zone, the union of its pieces' down-sets, meets the down-set
    of ``b`` in a set that is cover-closed by transitivity: the new zone.  A
    piece above ``b`` makes the restriction constant (the module lemma).
    """
    index = space.basis.bits
    at = index.at(b)
    down = index.down
    if not down[index.at(section.root)] >> at & 1:
        raise ValueError(f"{b!r} is not below the section root {section.root!r}")
    pos = index.pos
    below_b = down[at]
    zones: dict = {}
    for elem, val in section.pieces:
        below_elem = down[pos[elem]]
        if below_elem >> at & 1:
            first = below_b & index.up[at]
            return NatSection(b, ((index.elements[(first & -first).bit_length() - 1], val),))
        part = below_elem & below_b
        if part:
            zones[val] = zones.get(val, 0) | part
    return _from_zones(index, b, zones)


class ConstantPresheaf:
    """All locally constant sections with values drawn from a finite set.

    ``atoms(a)`` must list the finest-germ opens below ``a``: opens whose
    covers are trivial, jointly covering ``a``, with pairwise disjoint
    downsets carrying at most one atom each.  Sections then biject with
    atom-to-value assignments.
    """

    def __init__(self, space: FormalSpace, values: Iterable, atoms: Callable, label: str = "constant"):
        self.space = space
        self.values = tuple(values)
        self.atoms = atoms
        self.label = label
        self._sections: dict = {}
        self._restricts: dict = {}

    def sections(self, a) -> tuple:
        """Every section over ``a``, one per assignment of values to its atoms.

        Assignments run in ``itertools.product`` order.  Each open below
        ``a`` lies in the zone of ``v`` when every atom in its reach carries
        ``v`` (the module lemma), so no section runs a cover test.
        """
        got = self._sections.get(a)
        if got is not None:
            return got
        basis = self.space.basis
        index = basis.bits
        down, pos = index.down, index.pos
        atom_downs = [down[pos[t]] for t in self.atoms(a)]
        reach = []
        for w in basis.down(a):
            i = pos[w]
            reach.append((1 << i, tuple(k for k, d in enumerate(atom_downs) if d & down[i])))
        out = []
        for combo in itertools.product(self.values, repeat=len(atom_downs)):
            zones: dict = {}
            for bit, reached in reach:
                value = combo[reached[0]]
                if all(combo[k] == value for k in reached[1:]):
                    zones[value] = zones.get(value, 0) | bit
            out.append(_from_zones(index, a, zones))
        got = tuple(out)
        self._sections[a] = got
        return got

    def restrict(self, section: NatSection, b) -> NatSection:
        key = (section, b)
        got = self._restricts.get(key)
        if got is None:
            got = restrict_section(self.space, section, b)
            self._restricts[key] = got
        return got

    def section_count(self, a) -> int:
        return len(self.values) ** len(self.atoms(a))


def double_atoms(double: DoubleSpace) -> Callable:
    def atoms(x):
        if isinstance(x, SingletonOpen):
            return (x,)
        return tuple(DOpen(v) for v in double.inner.leaves(x.seq))
    return atoms


def space_atoms(space: FormalSpace) -> Callable:
    if isinstance(space, DoubleSpace):
        return double_atoms(space)
    if isinstance(space, TruncatedSpace):
        return space.leaves
    raise TypeError("constant sheaves need a truncated space or a double")


def stream_obs_values(branch: int, depth: int) -> tuple:
    """One canonical stream per observation class at the truncation depth."""
    leaves = bracket(branch, (), depth)
    return tuple(sorted((Point(w, 0) for w in leaves), key=lambda p: p.sort_key))


def _inner_depth(space: FormalSpace) -> int:
    inner = space.inner if isinstance(space, DoubleSpace) else space
    if not isinstance(inner, TruncatedSpace):
        raise TypeError("stream labels need a truncated space or a double")
    return inner.depth


def require_positive(space: FormalSpace) -> None:
    """No basic open may be covered by the empty sieve.

    Truncated spaces and their doubles are positive by construction, a lemma
    the tests check on the shapes the package builds, so only a space from
    outside is scanned.
    """
    if isinstance(space, (TruncatedSpace, DoubleSpace)):
        return
    for a in space.basis.elements:
        if space.topology.cover(a, Sieve.empty(space.basis, a)).covered:
            raise EmptyCoverPresent(f"the empty sieve covers {a!r}")


def nat_sheaf(space: FormalSpace, n_max: int) -> ConstantPresheaf:
    require_positive(space)
    return ConstantPresheaf(space, tuple(range(n_max)), space_atoms(space), label="nat")


def finseq_sheaf(
    space: FormalSpace, branch: int, len_cap: int, label: str | None = None
) -> ConstantPresheaf:
    require_positive(space)
    return ConstantPresheaf(
        space,
        all_sequences(branch, len_cap),
        space_atoms(space),
        label=label or f"finseq{branch}",
    )


def stream_sheaf(
    space: FormalSpace, branch: int, depth: int | None = None, label: str | None = None
) -> ConstantPresheaf:
    """Sheaf of continuous maps into the depth-``depth`` tree, as graphs.

    At truncation every such map is locally constant, so its sections are
    zone decompositions labelled by observation classes of streams: one
    canonical eventually-constant stream per leaf.
    """
    require_positive(space)
    if depth is None:
        depth = _inner_depth(space)
    return ConstantPresheaf(
        space,
        stream_obs_values(branch, depth),
        space_atoms(space),
        label=label or f"seq{branch}",
    )


def derived_sheaves(space: FormalSpace) -> dict:
    """The sort sheaves built on top of the naturals: booleans, lists, streams.

    Keys: ``two``, ``finseq2``, ``seq2``, ``finseqN``, ``seqN`` where N is the
    branching of the underlying tree.
    """
    inner = space.inner if isinstance(space, DoubleSpace) else space
    if not isinstance(inner, TruncatedSpace):
        raise TypeError("derived sheaves need a truncated space or a double")
    branch, depth = inner.branch, inner.depth
    require_positive(space)
    atoms = space_atoms(space)
    return {
        "two": ConstantPresheaf(space, (0, 1), atoms, label="two"),
        "finseq2": ConstantPresheaf(space, all_sequences(2, depth), atoms, label="finseq2"),
        "seq2": ConstantPresheaf(space, stream_obs_values(2, depth), atoms, label="seq2"),
        "finseqN": ConstantPresheaf(
            space, all_sequences(branch, depth), atoms, label="finseqN"
        ),
        "seqN": ConstantPresheaf(space, stream_obs_values(branch, depth), atoms, label="seqN"),
    }


@dataclass(frozen=True)
class SheafReport:
    law_failures: tuple
    separation_failures: tuple
    glue_failures: tuple
    checked_laws: int
    checked_families: int

    @property
    def ok(self) -> bool:
        return not (self.law_failures or self.separation_failures or self.glue_failures)


def _law_failures(presheaf: ConstantPresheaf, elems, max_failures: int):
    """Identity and composition for every section, stopping at ``max_failures``.

    Each section's direct restrictions are read once; composition compares
    the restriction of ``s|b`` to ``c`` with the direct ``s|c``.
    """
    basis = presheaf.space.basis
    failures = []
    checked = 0
    for a in elems:
        for s in presheaf.sections(a):
            direct = {b: presheaf.restrict(s, b) for b in basis.down(a)}
            checked += 1
            if direct[a] != s:
                failures.append(("identity", a, s))
                if len(failures) >= max_failures:
                    return failures, checked
            for b in basis.down(a):
                if b == a:
                    continue
                sb = direct[b]
                for c in basis.down(b):
                    if c == b:
                        continue
                    checked += 1
                    if presheaf.restrict(sb, c) != direct[c]:
                        failures.append(("composition", (a, b, c), s))
                        if len(failures) >= max_failures:
                            return failures, checked
    return failures, checked


def _check_family(presheaf, a, fam, separation_failures, glue_failures, max_failures):
    """Separation and unique amalgamation for one presented covering family.

    Every section is fingerprinted by its tuple of restrictions to the
    family once; separation failures are fingerprint collisions.  For each
    pair of members, the sections of each are keyed by their restrictions to
    the opens below both, so the compatible local combinations come out
    depth-first in ``itertools.product`` order, each member extended only
    by sections whose keys match the earlier choices.  A compatible
    combination glues to exactly the sections carrying it as their
    fingerprint.
    """
    basis = presheaf.space.basis
    restrict = presheaf.restrict
    secs = presheaf.sections(a)
    fingerprints: dict = {}
    for s in secs:
        key = tuple(restrict(s, x) for x in fam)
        fingerprints.setdefault(key, []).append(s)
    for group in fingerprints.values():
        for t in group[1:]:
            separation_failures.append((a, fam, group[0], t))
    members = [presheaf.sections(x) for x in fam]
    # for each member j and each earlier member i it overlaps: the keys of
    # i's sections, by position, and the positions of j's sections, by key
    constraints: list = [[] for _ in fam]
    for i, x in enumerate(fam):
        for j in range(i + 1, len(fam)):
            common = [z for z in basis.down(x) if z in basis.below(fam[j])]
            if not common:
                continue
            keys_i = [tuple(restrict(s, z) for z in common) for s in members[i]]
            by_key: dict = {}
            for q, t in enumerate(members[j]):
                by_key.setdefault(tuple(restrict(t, z) for z in common), set()).add(q)
            constraints[j].append((i, keys_i, by_key))

    def compatible(picked: tuple):
        k = len(picked)
        if k == len(fam):
            yield picked
            return
        allowed = None
        for i, keys_i, by_key in constraints[k]:
            hit = by_key.get(keys_i[picked[i]], set())
            allowed = hit if allowed is None else allowed & hit
        for q in range(len(members[k])) if allowed is None else sorted(allowed):
            yield from compatible(picked + (q,))

    for picked in compatible(()):
        combo = tuple(members[k][q] for k, q in enumerate(picked))
        glued = fingerprints.get(combo, ())
        if len(glued) != 1:
            glue_failures.append((a, fam, combo, len(glued)))
            if len(glue_failures) >= max_failures:
                return False
    return True


def sheaf_check(
    presheaf: ConstantPresheaf,
    elements: Iterable | None = None,
    max_failures: int = 4,
    sieve_cap: int = 64,
) -> SheafReport:
    """Presheaf laws, separation, and unique amalgamation over sampled covers.

    Families come from the covering system's own families when present,
    first, and then the generators of up to ``sieve_cap`` sampled covering
    sieves on each element.  The generated topology makes the system's
    families sufficient, so ``sieve_cap=0`` checks them alone.
    """
    space = presheaf.space
    elems = tuple(elements) if elements is not None else space.basis.elements

    def families_at(a):
        seen = dict()
        if space.system is not None:
            for fam in space.system.families_at(a):
                seen.setdefault(fam, None)
        for s in sieves_on(space.basis, a, cap=sieve_cap):
            if space.topology.cover(a, s).covered:
                seen.setdefault(s.generators, None)
        return list(seen)

    law_failures, checked_laws = _law_failures(presheaf, elems, max_failures)
    separation_failures: list = []
    glue_failures: list = []
    checked_families = 0
    for a, fam in ((a, fam) for a in elems for fam in families_at(a)):
        checked_families += 1
        if not _check_family(
            presheaf, a, fam, separation_failures, glue_failures, max_failures
        ):
            break
    return SheafReport(
        tuple(law_failures),
        tuple(separation_failures),
        tuple(glue_failures),
        checked_laws,
        checked_families,
    )


@dataclass(frozen=True)
class PureDensityReport:
    checked: int
    failures: tuple

    @property
    def ok(self) -> bool:
        return not self.failures


PURE_DENSITY_SORTS = ("nat", "two", "finseq")


def pure_density_check(presheaf: ConstantPresheaf, elements: Iterable | None = None) -> PureDensityReport:
    """Every section must be pure on a cover of its root.

    Only the value sorts whose pure elements are genuinely dense are
    accepted; stream sheaves are rejected by contract, since at truncation
    every graph is locally constant and a check here would claim density
    the untruncated objects do not have.
    """
    if not any(presheaf.label.startswith(sort) for sort in PURE_DENSITY_SORTS):
        raise ValueError(
            f"pure density is not claimed for {presheaf.label or 'unlabelled'} sheaves"
        )
    space = presheaf.space
    elems = tuple(elements) if elements is not None else space.basis.elements
    checked = 0
    failures = []
    for a in elems:
        for s in presheaf.sections(a):
            checked += 1
            pure_zone = [
                v for v in space.basis.down(a) if value_at(space, s, v) is not None
            ]
            sieve = Sieve.from_generators(space.basis, a, pure_zone)
            if not space.topology.cover(a, sieve).covered:
                failures.append((a, s))
    return PureDensityReport(checked, tuple(failures))


def slice_space(space: FormalSpace, root) -> FormalSpace:
    """The part of the space below one open, with the induced covers."""
    elems = space.basis.down(root)
    basis = Basis({a: space.basis.below(a) for a in elems})
    system = None
    if space.system is not None:
        # CoveringSystem rejects any family member outside the slice
        table = {
            a: tuple(space.system.families_at(a))
            for a in elems
            if space.system.families_at(a)
        }
        system = CoveringSystem(basis, table)
    return FormalSpace(basis, space.topology, system)


def section_to_map(presheaf: ConstantPresheaf, section: NatSection) -> ContinuousMap:
    """The section as a continuous map from its slice to the discrete value space."""
    space = presheaf.space
    src = slice_space(space, section.root)
    tgt = discrete_space(presheaf.values)
    pairs = {
        (x, value_at(space, section, x))
        for x in src.basis.elements
        if value_at(space, section, x) is not None
    }
    return ContinuousMap(src, tgt, frozenset(pairs))


def map_to_section(presheaf: ConstantPresheaf, root, fmap: ContinuousMap) -> NatSection:
    """Read a continuous map into the discrete value space back as a section."""
    assignments = []
    for t in presheaf.atoms(root):
        img = fmap.image(t)
        if len(img) != 1:
            raise NotASection(f"map is not single-valued at the atom {t!r}")
        assignments.append((t, img[0]))
    return make_section(presheaf.space, root, assignments)


@dataclass(frozen=True)
class BijectionReport:
    sections: int
    maps: int
    round_trip_ok: bool
    all_maps_continuous: bool

    @property
    def ok(self) -> bool:
        return self.round_trip_ok and self.all_maps_continuous and self.sections == self.maps


def section_map_bijection_check(presheaf: ConstantPresheaf, root) -> BijectionReport:
    """Sections over ``root`` correspond exactly to continuous maps into the values."""
    secs = presheaf.sections(root)
    maps = []
    round_trip = True
    continuous = True
    for s in secs:
        fmap = section_to_map(presheaf, s)
        if not check_continuous_map(fmap).ok:
            continuous = False
        if map_to_section(presheaf, root, fmap) != s:
            round_trip = False
        maps.append(fmap.pairs)
    return BijectionReport(len(secs), len(set(maps)), round_trip, continuous)
