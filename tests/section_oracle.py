"""Reference oracles for the section layer: the ways the package once worked.

The package restricts a canonical section by intersecting each value's zone
with the down-set of the new root, reads a presheaf's sections off atom
assignments without a cover test, canonicalizes zones in one walk, and finds
the compatible local combinations of a family through pairwise keys.  Each
oracle here does the same job the older, slower way: by cover tests through
``make_section``, one walk per value followed by a sort, and a filter over
the whole product of the members' sections.
"""
import itertools

from sheafbench.sheaves import NatSection, make_section
from sheafbench.site import element_key


def restrict_by_covers(space, section, b):
    """The restriction of ``section`` to ``b``, canonicalized by ``make_section``."""
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


def sections_by_covers(presheaf, a):
    """Every section over ``a``: ``make_section`` on each atom assignment."""
    atoms = presheaf.atoms(a)
    return tuple(
        make_section(presheaf.space, a, tuple(zip(atoms, combo)))
        for combo in itertools.product(presheaf.values, repeat=len(atoms))
    )


def from_zones_per_value(basis, root, zones):
    """The canonical section holding each value on its zone, one walk per value."""
    pieces = []
    seen = set()
    for value, zone in zones.items():
        for w in basis.down(root):
            if w in zone:
                above = zone.intersection(basis.up(w))
                if above <= basis.below(w) and seen.isdisjoint(above):
                    pieces.append((w, value))
                seen.add(w)
    key = lambda piece: (element_key(piece[0]), element_key(piece[1]))
    return NatSection(root, tuple(sorted(pieces, key=key)))


def check_family_by_product(presheaf, a, fam, separation_failures, glue_failures, max_failures):
    """Separation and amalgamation for one family, filtering the whole product.

    Every element of the product of the members' sections is tested for
    compatibility on the opens below each pair of members.
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
    overlaps = []
    for i, x in enumerate(fam):
        for j in range(i + 1, len(fam)):
            common = basis.below(x) & basis.below(fam[j])
            overlaps.append((i, j, [z for z in basis.down(x) if z in common]))
    locals_per_member = [presheaf.sections(x) for x in fam]
    for combo in itertools.product(*locals_per_member):
        if any(
            presheaf.restrict(combo[i], z) != presheaf.restrict(combo[j], z)
            for i, j, common in overlaps
            for z in common
        ):
            continue
        glued = fingerprints.get(combo, ())
        if len(glued) != 1:
            glue_failures.append((a, fam, combo, len(glued)))
            if len(glue_failures) >= max_failures:
                return False
    return True
