"""Desk-scale workbench for finite formal topologies and sheaf forcing.

The package builds truncated tree spaces (Cantor, Baire) and their doubles,
interprets a small first-order language by forcing over them, extracts
programs from fan/bar/continuity premises with replayable transcripts, and
checks the standard presheaves against the sheaf laws.  ``sheafbench.cli``
exposes the same machinery on the command line.
"""
from .brouwer import (
    BrouwerTree,
    alt_baire_equiv_check,
    bo_sheaf_checks,
    enumerate_trees,
    k_map,
    sup,
    tree_equiv,
)
from .double import DOpen, DoubleSpace, SingletonOpen, build_double, canonical_maps
from .forcing import (
    FuelExhausted,
    cc_refine,
    choice_amalgamation,
    classical_truth,
    force,
    standard_model,
)
from .formulas import parse_formula
from .maps import ContinuousMap, check_continuous_map, compose_maps, identity_map, one_point_space
from .points import Point, eventually_constant_points, is_point, pt_space
from .rules import bar_rule, continuity_rule, fan_rule, recheck_transcript
from .sheaves import (
    derived_sheaves,
    nat_sheaf,
    pure_density_check,
    section_map_bijection_check,
    sheaf_check,
    sheaf_check_covering_system,
)
from .site import (
    Basis,
    CoveringSystem,
    FormalSpace,
    GeneratedTopology,
    InductiveDefinition,
    Sieve,
    check_topology_axioms,
    inductive_close,
    set_compactness_witness,
)
from .spaces import (
    Bar,
    TruncatedSpace,
    baire_space,
    bar_from_generators,
    cantor_space,
    kfinite_subcover,
)

__version__ = "0.1.0"

__all__ = [
    "Bar",
    "Basis",
    "BrouwerTree",
    "ContinuousMap",
    "CoveringSystem",
    "DOpen",
    "DoubleSpace",
    "FormalSpace",
    "FuelExhausted",
    "GeneratedTopology",
    "InductiveDefinition",
    "Point",
    "Sieve",
    "SingletonOpen",
    "TruncatedSpace",
    "alt_baire_equiv_check",
    "baire_space",
    "bar_from_generators",
    "bar_rule",
    "bo_sheaf_checks",
    "build_double",
    "canonical_maps",
    "cantor_space",
    "cc_refine",
    "check_continuous_map",
    "check_topology_axioms",
    "choice_amalgamation",
    "classical_truth",
    "compose_maps",
    "continuity_rule",
    "derived_sheaves",
    "enumerate_trees",
    "eventually_constant_points",
    "fan_rule",
    "force",
    "identity_map",
    "inductive_close",
    "is_point",
    "k_map",
    "kfinite_subcover",
    "nat_sheaf",
    "one_point_space",
    "parse_formula",
    "pt_space",
    "pure_density_check",
    "recheck_transcript",
    "section_map_bijection_check",
    "set_compactness_witness",
    "sheaf_check",
    "sheaf_check_covering_system",
    "standard_model",
    "sup",
    "tree_equiv",
]
