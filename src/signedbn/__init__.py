"""Signed interaction-graph analysis for Boolean networks.

The package couples a signed-digraph toolbox (cycles, strong components,
special arcs, deletion parameters) with a brute-force Boolean-network
layer so every structural fixed-point statement can be checked against
exhaustive or sampled dynamics.
"""

from .graphs import (
    INF,
    NEGATIVE,
    POSITIVE,
    Arc,
    ComponentDecomposition,
    CycleCapExceeded,
    Digraph,
    SignedCycle,
    SignedDigraph,
    enumerate_cycles,
    find_negative_cycle,
    has_negative_cycle,
    is_strong,
    reachable,
    scc,
)
from .boolnet import (
    BooleanNetwork,
    LocalFunction,
    UnrealizableGraphError,
    enumerate_consistent,
    max_fixed_points,
    sample_consistent,
)
from .structure import (
    AnalysisReport,
    RuleVerdict,
    SpecialArcVerdict,
    analyze,
    existence_arc_rule,
    find_special_arc,
    g_plus,
    g_tilde_plus,
    is_special_arc,
    no_fixed_point_condition,
    tau_plus,
    tau_tilde_plus,
    two_coloring,
    two_fixed_points_condition,
    unique_negative_cycle_arc,
    uniqueness_arc_rule,
    uniqueness_vertex_rule,
)
from .codes import exact_max_code, fixed_point_bound, gilbert_lower, sphere_packing_upper
from .kernels import generalized_condition, richardson_condition, to_network
from .generators import double_cycle, figure1, random_signed_digraph

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "Arc",
    "BooleanNetwork",
    "ComponentDecomposition",
    "CycleCapExceeded",
    "Digraph",
    "INF",
    "LocalFunction",
    "NEGATIVE",
    "POSITIVE",
    "RuleVerdict",
    "SignedCycle",
    "SignedDigraph",
    "SpecialArcVerdict",
    "UnrealizableGraphError",
    "analyze",
    "double_cycle",
    "enumerate_consistent",
    "enumerate_cycles",
    "exact_max_code",
    "existence_arc_rule",
    "figure1",
    "find_negative_cycle",
    "find_special_arc",
    "fixed_point_bound",
    "g_plus",
    "g_tilde_plus",
    "generalized_condition",
    "gilbert_lower",
    "has_negative_cycle",
    "is_special_arc",
    "is_strong",
    "max_fixed_points",
    "no_fixed_point_condition",
    "random_signed_digraph",
    "reachable",
    "richardson_condition",
    "sample_consistent",
    "scc",
    "sphere_packing_upper",
    "tau_plus",
    "tau_tilde_plus",
    "to_network",
    "two_coloring",
    "two_fixed_points_condition",
    "unique_negative_cycle_arc",
    "uniqueness_arc_rule",
    "uniqueness_vertex_rule",
]
