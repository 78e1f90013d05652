"""Reference oracle for restriction: rebuild the restricted section by cover tests.

The package restricts a canonical section by intersecting each value's zone
with the down-set of the new root, with no cover test.  This oracle restricts
the way the package once did: it hands every open below the new root that
lies under a piece of the section to ``make_section``, which derives each
zone afresh from its cover tests.
"""
from sheafbench.sheaves import make_section


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
