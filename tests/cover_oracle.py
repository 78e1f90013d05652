"""Per-element oracle for ``Topology.covered``: one sieve and one cover test
per basis element, which is how forcing asked before it saturated zones."""
from sheafbench.site import Sieve, Topology


def covered_by_cover_tests(space, zone) -> frozenset:
    """Every element ``a`` whose sieve ``zone & below(a)`` covers ``a``."""
    basis, topology = space.basis, space.topology
    return frozenset(
        a for a in basis.elements
        if topology.cover(a, Sieve.from_generators(basis, a, zone)).covered
    )


def own_cover_topologies(cls=Topology):
    """Every subclass of ``cls`` that defines its own cover test."""
    for sub in cls.__subclasses__():
        if "cover" in vars(sub):
            yield sub
        yield from own_cover_topologies(sub)
