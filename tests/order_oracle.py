"""Reference oracle for the order: a basis read off a callable relation.

The package holds every order as the down-set of each element.  Tests that
state an order as a relation build their basis here, one relation call per
ordered pair, and compare the package's down-sets against the relation.
Tests that write their own covering data build its topology here too, with
the covering axiom checked first.
"""
from sheafbench.site import Basis, CoveringSystem, GeneratedTopology


def basis_from_relation(elements, leq) -> Basis:
    """The basis on ``elements`` in which ``a`` lies below ``b`` iff ``leq(a, b)``."""
    xs = tuple(elements)
    return Basis({b: [a for a in xs if leq(a, b)] for b in xs})


def generate_topology(system: CoveringSystem) -> GeneratedTopology:
    """The generated topology of hand-written covering data, axiom checked first."""
    system.validate()
    return GeneratedTopology(system)
