"""Independent cover tests, one per space kind, against which the package's
ranked kernel (``Topology.ranks``) is checked.

They are the per-sieve procedures the package ran before every cover test
read that kernel: a fixpoint of least derivation depths over the fragment
below the root for a generated topology, a depth-by-depth scan of uniform
brackets for a bracket topology, and the closed form over the inner space
for a double.  ``covered_by_cover_tests`` asks one of them per basis
element, which is how forcing asked before it saturated zones, and
``axioms_by_cover_tests`` is the axiom check as it ran before it read one
verdict per (sample, element): a cover test per instance.
"""
from sheafbench.double import DOpen, DoubleTopology, SingletonOpen
from sheafbench.site import AxiomReport, CoverResult, Sieve, Topology, sieves_on
from sheafbench.spaces import BracketTopology, bracket


def depth_map(system, a, members) -> dict:
    """Least derivation depth of each element below ``a`` that the rules of
    ``system`` derive from ``members``, by iterating to a fixpoint."""
    fragment = system.basis.down(a)
    depths = {v: 0 for v in fragment if v in members}
    rules = [(v, alpha) for v in fragment for alpha in system.families_at(v)]
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
    return depths


def bracket_scan(topology, u, sieve) -> CoverResult:
    """The least depth whose uniform bracket of ``u`` lies in ``sieve``, or
    the leaves below ``u`` outside it."""
    for q in range(len(u), topology.depth + 1):
        if all(sieve.contains(v) for v in bracket(topology.branch, u, q)):
            return CoverResult(True, depth=q)
    leaves = bracket(topology.branch, u, topology.depth)
    return CoverResult(False, frontier=tuple(v for v in leaves if not sieve.contains(v)))


def oracle_cover(topology, a, sieve) -> CoverResult:
    """The verdict, depth and frontier ``topology.cover(a, sieve)`` must give."""
    topology.basis.require(a)
    if isinstance(topology, BracketTopology):
        return bracket_scan(topology, a, sieve)
    if isinstance(topology, DoubleTopology):
        if isinstance(a, SingletonOpen):
            hit = sieve.contains(a)
            return CoverResult(hit, depth=0 if hit else None, frontier=() if hit else (a,))
        inner = topology.inner
        dpart = (v.seq for v in sieve.members if isinstance(v, DOpen))
        res = oracle_cover(inner.topology, a.seq, Sieve.from_generators(inner.basis, a.seq, dpart))
        return CoverResult(res.covered, depth=res.depth, frontier=tuple(map(DOpen, res.frontier)))
    depths = depth_map(topology.system, a, sieve.members)
    if a in depths:
        return CoverResult(True, depth=depths[a])
    return CoverResult(False, frontier=tuple(v for v in topology.basis.down(a) if v not in depths))


def covered_by_cover_tests(space, zone) -> frozenset:
    """Every element ``a`` whose sieve ``zone & below(a)`` covers ``a``."""
    basis = space.basis
    return frozenset(
        a for a in basis.elements
        if oracle_cover(space.topology, a, Sieve.from_generators(basis, a, zone)).covered
    )


def own_cover_topologies(cls=Topology):
    """Every subclass of ``cls`` in the package that defines its own cover
    test; test oracles such as the spatial topology are left out."""
    for sub in cls.__subclasses__():
        if "cover" in vars(sub) and sub.__module__.startswith("sheafbench."):
            yield sub
        yield from own_cover_topologies(sub)


def axioms_by_cover_tests(space, sieve_cap) -> AxiomReport:
    """Maximality, stability and local character, each instance asked of
    ``space.topology.cover`` on its own restricted sieve."""
    basis, topology = space.basis, space.topology
    checked = 0
    max_fail, stab_fail, local_fail = [], [], []
    samples = {a: sieves_on(basis, a, cap=sieve_cap) for a in basis.elements}
    for a in basis.elements:
        checked += 1
        if not topology.cover(a, Sieve.maximal(basis, a)).covered:
            max_fail.append(a)
    for a in basis.elements:
        covered_here = [s for s in samples[a] if topology.cover(a, s).covered]
        for s in covered_here:
            for b in basis.down(a):
                checked += 1
                if not topology.cover(b, s.restrict(b)).covered:
                    stab_fail.append((a, s.generators, b))
        for r in covered_here:
            for s in samples[a]:
                checked += 1
                if all(
                    topology.cover(b, s.restrict(b)).covered
                    for b in basis.down(a) if b in r.members
                ):
                    if not topology.cover(a, s).covered:
                        local_fail.append((a, r.generators, s.generators))
    return AxiomReport(checked, tuple(max_fail), tuple(stab_fail), tuple(local_fail))
