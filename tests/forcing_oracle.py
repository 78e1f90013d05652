"""Per-stage forcing: the oracle for the set-at-a-time evaluator.

Each call answers one (subformula, stage, env) triple, memoized by that
triple, and ticks once per triple it evaluates; quantifier and connective
zones are built over the whole basis.  ``steps`` therefore counts the
distinct triples demanded, which the package's evaluator must reproduce.
Every atom is decided at one stage at a time by its definition
(:data:`STAGE_ATOMS`), against which the package's atom zones are tested.
"""
from sheafbench import formulas as F
from sheafbench.forcing import (
    STREAM_SORTS, FuelExhausted, ModelError, _app_args, _prefix_args, _stream_arg, eval_term,
    observe, point_observation, section_members)
from sheafbench.site import Sieve


def eq_atom(model, stage, args) -> bool:
    if len(args) != 2:
        raise ModelError("Eq takes two arguments")
    (s1, v1), (s2, v2) = args
    if s1 != s2:
        raise ModelError(f"Eq compares values of one sort, got {s1} and {s2}")
    if s1 in STREAM_SORTS:
        return all(
            section_members(model, v1, v) == section_members(model, v2, v)
            for v in model.space.basis.down(stage)
        )
    return v1 == v2


def leq_atom(model, stage, args) -> bool:
    if len(args) != 2 or args[0][0] != "Nat" or args[1][0] != "Nat":
        raise ModelError("Leq takes two Nat arguments")
    return args[0][1] <= args[1][1]


def prefix_atom(model, stage, args) -> bool:
    value, u = _prefix_args(args)
    return u in section_members(model, value, stage)


def inbar_atom(model, stage, args) -> bool:
    if len(args) != 1 or args[0][0] != "FinSeq":
        raise ModelError("InBar takes one FinSeq argument")
    if model.bar is None:
        raise ModelError("the model has no bar")
    return model.bar.holds(tuple(args[0][1]))


def rel_atom(model, stage, args) -> bool:
    """f(a) = b, read along every enumerated point through the stage.

    Streams are compared by their visible members, so two that agree to the
    truncation depth count as equal.
    """
    if len(args) != 2:
        raise ModelError("Rel takes two arguments")
    v1 = _stream_arg(args[0], "Rel")
    v2 = _stream_arg(args[1], "Rel")
    if model.rel_table is None:
        raise ModelError("the model has no function table for Rel")
    branch = v2.branch
    for q in model.points_through(stage):
        image = model.rel_table.get(observe(model, v1, q))
        if image is None:
            raise ModelError(f"the function table has no value at {q}")
        expected = point_observation(model, image, branch)
        if point_observation(model, observe(model, v2, q), branch) != expected:
            return False
    return True


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
STAGE_ATOMS = {
    "Eq": eq_atom,
    "Leq": leq_atom,
    "Prefix": prefix_atom,
    "InBar": inbar_atom,
    "Rel": rel_atom,
    "App": app_atom,
}


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


def witness_sieve_and_count(model, stage, node, env=None, fuel=None):
    """Members below ``stage`` with a witness for ``node``, each with its
    first witness, and the step count of the fresh run that read them."""
    run = _Run(model, fuel)
    zone = _zone(run, node, dict(env or {}))
    return tuple((v, zone[v]) for v in model.space.basis.down(stage) if v in zone), run.steps


def exists_witness_sieve(model, stage, node, env=None, fuel=None):
    return witness_sieve_and_count(model, stage, node, env, fuel)[0]


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
