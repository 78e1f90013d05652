"""Per-stage forcing: the oracle for the set-at-a-time evaluator.

Each call answers one (subformula, stage, env) triple, memoized by that
triple, and ticks once per triple it evaluates; quantifier and connective
zones are built over the whole basis.  ``steps`` therefore counts the
distinct triples demanded, which the package's evaluator must reproduce.
"""
from sheafbench import formulas as F
from sheafbench.forcing import (
    ATOMS, FuelExhausted, ModelError, _app_args, eval_term, section_members)
from sheafbench.site import Sieve


def app_atom(model, stage, args) -> bool:
    """App at one stage: the elements below it whose members show entry m
    at position n generate a sieve, and App holds where that sieve covers."""
    value, n, m = _app_args(args)
    basis = model.space.basis
    members = [
        v for v in basis.down(stage)
        if any(len(w) > n and w[n] == m for w in section_members(model, value, v))
    ]
    return model.space.topology.cover(
        stage, Sieve.from_generators(basis, stage, members)).covered


# the per-stage definition of every atom
STAGE_ATOMS = {**ATOMS, "App": app_atom}


class _Run:
    def __init__(self, model, fuel):
        self.model = model
        self.fuel = fuel
        self.steps = 0
        self.memo: dict = {}
        self.zones: dict = {}

    def tick(self):
        self.steps += 1
        if self.fuel is not None and self.steps > self.fuel:
            raise FuelExhausted(self.steps)

    def env_key(self, node, env: dict) -> tuple:
        """Relevant slice of the environment as a fixed-order value tuple."""
        return tuple(map(env.get, node.free))


def force_and_count(model, stage, formula, env=None, fuel=None):
    """Verdict and step count of one per-stage run."""
    model.space.basis.require(stage)
    run = _Run(model, fuel)
    return _force(run, stage, formula, dict(env or {})), run.steps


def exists_witness_sieve(model, stage, node, env=None, fuel=None):
    zone = _zone(_Run(model, fuel), node, dict(env or {}))
    return tuple((v, zone[v]) for v in model.space.basis.down(stage) if v in zone)


def _force(run: _Run, stage, node, env: dict) -> bool:
    model = run.model
    key = (node, stage, run.env_key(node, env))
    out = run.memo.get(key)
    if out is not None:
        return out
    run.tick()

    basis = model.space.basis
    topology = model.space.topology

    if isinstance(node, F.Falsum):
        out = topology.cover(stage, Sieve.empty(basis, stage)).covered
    elif isinstance(node, F.Atom):
        impl = STAGE_ATOMS.get(node.name)
        if impl is None:
            raise ModelError(f"unknown atom {node.name!r}")
        args = tuple(eval_term(model, env, t) for t in node.args)
        out = bool(impl(model, stage, args))
    elif isinstance(node, F.And):
        out = _force(run, stage, node.left, env) and _force(run, stage, node.right, env)
    elif isinstance(node, (F.Or, F.Exists)):
        sieve = Sieve.from_generators(basis, stage, _zone(run, node, env))
        out = topology.cover(stage, sieve).covered
    elif isinstance(node, (F.Implies, F.Forall)):
        out = basis.below(stage).isdisjoint(_zone(run, node, env))
    else:
        raise ModelError(f"not a formula: {node!r}")

    run.memo[key] = out
    return out


def _zone(run: _Run, node, env: dict):
    """Basis elements where a connective's stage-local condition holds.

    A quantifier's zone maps each element to its first witness (Exists) or
    counterexample (Forall) in universe order.
    """
    model = run.model
    key = (node, run.env_key(node, env))
    got = run.zones.get(key)
    if got is not None:
        return got

    elements = model.space.basis.elements
    if isinstance(node, F.Or):
        got = frozenset(
            v
            for v in elements
            if _force(run, v, node.left, env) or _force(run, v, node.right, env)
        )
    elif isinstance(node, F.Implies):
        got = frozenset(
            v
            for v in elements
            if _force(run, v, node.left, env) and not _force(run, v, node.right, env)
        )
    elif isinstance(node, (F.Exists, F.Forall)):
        universe = model.universe(node.sort)
        wanted = isinstance(node, F.Exists)
        got = {}
        for v in elements:
            inner_env = dict(env)
            for c in universe:
                inner_env[node.var] = (node.sort, c)
                if _force(run, v, node.body, inner_env) == wanted:
                    got[v] = c
                    break
    else:
        raise ModelError(f"no zone for {node!r}")

    run.zones[key] = got
    return got
