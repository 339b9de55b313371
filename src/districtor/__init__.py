"""Balanced, compact, convex districting of weighted point populations.

The engine partitions a weighted planar point set into k districts whose
populations differ by at most one person, by alternating an exact
minimum-cost balanced assignment (a transshipment solve whose duals yield
power-diagram weights) with a centroid update, until the centers stop
moving. The resulting districts are cells of a convex power diagram.
"""

from .assignment import (
    ConsistencyReport,
    ScaledCostPolicy,
    verify_power_consistency,
)
from .model import (
    BalancedAssignment,
    CenterSet,
    Instance,
    IterationRecord,
    ModelError,
    PowerWeights,
    RunTrace,
    assignment_cost,
    balanced_capacities,
)

__version__ = "0.1.0"

__all__ = [
    "BalancedAssignment",
    "CenterSet",
    "ConsistencyReport",
    "Instance",
    "IterationRecord",
    "ModelError",
    "PowerWeights",
    "RunTrace",
    "ScaledCostPolicy",
    "assignment_cost",
    "balanced_capacities",
    "verify_power_consistency",
    "__version__",
]
