"""Sheaves of locally constant values over a finite formal space.

A section over a basic open is a decomposition of that open into zones on
which the section is constant.  The canonical representative keeps, for each
value, the maximal opens of its zone, which makes equality of sections plain
tuple equality.  Values can be any hashable labels: naturals, finite
sequences, or eventually constant streams, which is how the sorts used by the
forcing interpreter all arise from one construction.

The space is assumed positive (no open is covered by the empty sieve); all
spaces built in this package are.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .site import Basis, CoveringSystem, FormalSpace, Sieve, element_key, sieves_on
from .points import Point, eventually_constant_points
from .spaces import TruncatedSpace, all_sequences, bracket
from .double import DOpen, DoubleSpace, SingletonOpen
from .maps import ContinuousMap, check_continuous_map, discrete_space


class IncompatibleAssignment(ValueError):
    """Two zones with different values overlap."""


class NotASection(ValueError):
    """The assigned zones fail to cover the root."""


class EmptyCoverPresent(ValueError):
    """Some open is covered by the empty sieve, so zones cannot be disjoint."""


def _piece_key(piece):
    elem, value = piece
    return (element_key(elem), element_key(value))


@dataclass(frozen=True)
class NatSection:
    """Locally constant section in canonical (maximal-zone) form."""

    root: object
    pieces: tuple  # ((element, value), ...) with maximal zone elements

    def values(self) -> tuple:
        seen = []
        for _, n in self.pieces:
            if n not in seen:
                seen.append(n)
        return tuple(seen)

    def is_pure(self) -> bool:
        return len(self.pieces) == 1 and self.pieces[0][0] == self.root

    def __repr__(self) -> str:
        body = ", ".join(f"{elem!r}:{val!r}" for elem, val in self.pieces)
        return f"<section@{self.root!r} {body}>"


def make_section(space: FormalSpace, root, assignments) -> NatSection:
    """Canonicalize an assignment of values to opens below ``root``.

    The zone of a value is everything covered by the opens carrying it; the
    zones must be pairwise disjoint and jointly cover the root.
    """
    basis = space.basis
    basis.require(root)
    if isinstance(assignments, Mapping):
        assignments = tuple(assignments.items())
    gens_by_value: dict = {}
    for elem, value in assignments:
        basis.require(elem)
        if not basis.leq(elem, root):
            raise NotASection(f"{elem!r} is not below the root {root!r}")
        gens_by_value.setdefault(value, []).append(elem)

    all_gens = [e for gens in gens_by_value.values() for e in gens]
    if not space.topology.cover(root, Sieve.from_generators(basis, root, all_gens)).covered:
        raise NotASection(f"assigned opens do not cover {root!r}")

    fragment = basis.down(root)
    value_of: dict = {}
    for value in sorted(gens_by_value, key=element_key):
        gens = gens_by_value[value]
        full = Sieve.from_generators(basis, root, gens)
        for w in fragment:
            if space.topology.cover(w, full.restrict(w)).covered:
                if w in value_of and value_of[w] != value:
                    raise IncompatibleAssignment(
                        f"{w!r} lies in the zones of {value_of[w]!r} and {value!r}"
                    )
                value_of[w] = value

    frag_set = set(fragment)
    pieces = []
    for value in sorted(gens_by_value, key=element_key):
        zone = [w for w in fragment if value_of.get(w) == value]
        for w in zone:
            if not any(
                v != w and value_of.get(v) == value
                for v in basis.up(w)
                if v in frag_set
            ):
                pieces.append((w, value))
    return NatSection(root, tuple(sorted(pieces, key=_piece_key)))


def value_at(space: FormalSpace, section: NatSection, x):
    """The section's constant value near ``x``, or None if x straddles zones."""
    space.basis.require(x)
    for elem, val in section.pieces:
        if space.basis.leq(x, elem):
            return val
    return None


def restrict_section(space: FormalSpace, section: NatSection, b) -> NatSection:
    basis = space.basis
    basis.require(b)
    if not basis.leq(b, section.root):
        raise ValueError(f"{b!r} is not below the section root {section.root!r}")
    assignments = [
        (x, val)
        for elem, val in section.pieces
        for x in basis.down(b)
        if basis.leq(x, elem)
    ]
    return make_section(space, b, assignments)


def pure_section(space: FormalSpace, root, value) -> NatSection:
    return NatSection(root, ((root, value),))


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
        got = self._sections.get(a)
        if got is not None:
            return got
        atoms = self.atoms(a)
        out = []
        for combo in itertools.product(self.values, repeat=len(atoms)):
            out.append(make_section(self.space, a, tuple(zip(atoms, combo))))
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


def nat_values(n_max: int) -> tuple:
    return tuple(range(n_max))

def finseq_values(branch: int, len_cap: int) -> tuple:
    return all_sequences(branch, len_cap)

def stream_values(branch: int, prefix_cap: int) -> tuple:
    return eventually_constant_points(branch, prefix_cap)


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
    """No basic open may be covered by the empty sieve."""
    for a in space.basis.elements:
        if space.topology.cover(a, Sieve.empty(space.basis, a)).covered:
            raise EmptyCoverPresent(f"the empty sieve covers {a!r}")


def nat_sheaf(space: FormalSpace, n_max: int) -> ConstantPresheaf:
    require_positive(space)
    return ConstantPresheaf(space, nat_values(n_max), space_atoms(space), label="nat")


def finseq_sheaf(
    space: FormalSpace, branch: int, len_cap: int, label: str | None = None
) -> ConstantPresheaf:
    require_positive(space)
    return ConstantPresheaf(
        space,
        finseq_values(branch, len_cap),
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


def derived_sheaves(space: FormalSpace, len_cap: int | None = None) -> dict:
    """The sort sheaves built on top of the naturals: booleans, lists, streams.

    Keys: ``two``, ``finseq2``, ``seq2``, ``finseqN``, ``seqN`` where N is the
    branching of the underlying tree.
    """
    inner = space.inner if isinstance(space, DoubleSpace) else space
    if not isinstance(inner, TruncatedSpace):
        raise TypeError("derived sheaves need a truncated space or a double")
    branch, depth = inner.branch, inner.depth
    if len_cap is None:
        len_cap = depth
    require_positive(space)
    return {
        "two": ConstantPresheaf(space, (0, 1), space_atoms(space), label="two"),
        "finseq2": finseq_sheaf(space, 2, len_cap, label="finseq2"),
        "seq2": stream_sheaf(space, 2, depth, label="seq2"),
        "finseqN": finseq_sheaf(space, branch, len_cap, label="finseqN"),
        "seqN": stream_sheaf(space, branch, depth, label="seqN"),
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
    basis = presheaf.space.basis
    failures = []
    checked = 0
    for a in elems:
        for s in presheaf.sections(a):
            if presheaf.restrict(s, a) != s:
                failures.append(("identity", a, s))
            checked += 1
            for b in basis.down(a):
                if b == a:
                    continue
                sb = presheaf.restrict(s, b)
                for c in basis.down(b):
                    if c == b:
                        continue
                    checked += 1
                    if presheaf.restrict(sb, c) != presheaf.restrict(s, c):
                        failures.append(("composition", (a, b, c), s))
                        if len(failures) >= max_failures:
                            break
    return failures, checked


def _check_family(presheaf, a, fam, separation_failures, glue_failures, max_failures):
    """Separation and unique amalgamation for one presented covering family.

    Every section is fingerprinted by its tuple of restrictions to the
    family once; separation failures are fingerprint collisions, and a
    compatible local combination glues to exactly the sections carrying it
    as their fingerprint.
    """
    basis = presheaf.space.basis
    secs = presheaf.sections(a)
    fingerprints: dict = {}
    for s in secs:
        key = tuple(presheaf.restrict(s, x) for x in fam)
        fingerprints.setdefault(key, []).append(s)
    for group in fingerprints.values():
        for t in group[1:]:
            separation_failures.append((a, fam, group[0], t))
    locals_per_member = [presheaf.sections(x) for x in fam]
    for combo in itertools.product(*locals_per_member):
        compatible = True
        for i, x in enumerate(fam):
            for j in range(i + 1, len(fam)):
                y = fam[j]
                for z in basis.down(x):
                    if basis.leq(z, y):
                        if presheaf.restrict(combo[i], z) != presheaf.restrict(combo[j], z):
                            compatible = False
                            break
                if not compatible:
                    break
            if not compatible:
                break
        if not compatible:
            continue
        glued = fingerprints.get(combo, ())
        if len(glued) != 1:
            glue_failures.append((a, fam, combo, len(glued)))
            if len(glue_failures) >= max_failures:
                return False
    return True


def _run_family_check(presheaf, elems, families_at, max_failures) -> SheafReport:
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


def sheaf_check(
    presheaf: ConstantPresheaf,
    elements: Iterable | None = None,
    max_failures: int = 4,
    sieve_cap: int = 64,
) -> SheafReport:
    """Presheaf laws, separation, and unique amalgamation over sampled covers.

    Families come from the generators of sampled covering sieves on each
    element, together with the covering system's own families when present.
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

    return _run_family_check(presheaf, elems, families_at, max_failures)


def sheaf_check_covering_system(
    presheaf: ConstantPresheaf,
    elements: Iterable | None = None,
    max_failures: int = 4,
    cross_sample: int = 1,
) -> SheafReport:
    """The sheaf axiom checked only on the covering system's families.

    The generated topology makes this sufficient; as a guard the full check
    is re-run on a few elements and must agree on the verdict.
    """
    space = presheaf.space
    if space.system is None:
        raise ValueError("the space carries no covering system")
    elems = tuple(elements) if elements is not None else space.basis.elements

    report = _run_family_check(
        presheaf, elems, space.system.families_at, max_failures
    )
    if cross_sample:
        sample = elems[:cross_sample]
        full = sheaf_check(presheaf, elements=sample, max_failures=max_failures)
        if report.ok and not full.ok:
            raise AssertionError("covering-system check passed where the full check fails")
    return report


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
    basis = Basis(elems, space.basis.leq)
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
