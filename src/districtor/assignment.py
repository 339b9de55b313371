"""Balanced minimum-cost assignment of blocks to centers, with power weights.

Squared distances are normalized by the block bounding-box diagonal, scaled
to integers, and handed to the exact flow solver; the demand-side duals of
the solved transshipment become the power-diagram weights.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import flow
from .model import BalancedAssignment, CenterSet, Instance, PowerWeights

DEFAULT_SCALE = 1.0e9

# Entries of the cost matrix computed per block of rows. The two float
# temporaries of a block take 512 KiB each and stay in cache: at 100k x 7 a
# build needs about 1 MiB beside the matrix, and is 2.7 times as fast as one
# pass over the whole matrix, whose float temporaries took twice its size.
_BLOCK_ENTRIES = 2**16


class AssignmentError(ValueError):
    """Invalid inputs to the balanced assignment."""


@dataclass(frozen=True)
class ScaledCostPolicy:
    """Fixed-point cost model parameters.

    ``scale`` is the number of integer cost units per unit of normalized
    squared distance (normalized = divided by the squared block bounding-box
    diagonal). Rounding is to the nearest integer.
    """

    scale: float = DEFAULT_SCALE

    def __post_init__(self) -> None:
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise AssignmentError(f"scale must be positive and finite, got {self.scale}")


@dataclass(frozen=True)
class CostModel:
    """Concrete cost mapping for one instance: d2 -> round(scale * d2 / diameter^2)."""

    diameter: float  # block bounding-box diagonal, original units
    scale: float

    @property
    def units_per_cost(self) -> float:
        """Original squared-distance units represented by one integer cost unit."""
        return self.diameter * self.diameter / self.scale

    def consistency_tolerance(self) -> float:
        """Slack, in original units, that absorbs cost rounding (one half-unit
        per arc on each side of the comparison)."""
        return 2.0 * self.units_per_cost

    def int_costs(self, points: np.ndarray, center_positions: np.ndarray) -> np.ndarray:
        """Integer cost matrix between points (n, 2) and centers (k, 2).

        The (n, k) result is column-major, the transpose of a C-ordered
        (k, n) array, so each center's column is contiguous: the flow
        solver's passes run down columns. It is filled in blocks of rows of
        about _BLOCK_ENTRIES entries, each rounded in floats and cast into
        place, so the arithmetic's temporaries stay a fixed size and in
        cache, whatever the size of the matrix.
        """
        n, k = points.shape[0], center_positions.shape[0]
        costs = np.empty((k, n), dtype=np.int64)
        rows = max(1, _BLOCK_ENTRIES // max(k, 1))
        for lo in range(0, n, rows):
            costs[:, lo : lo + rows] = self._rounded(
                points[None, lo : lo + rows, :], center_positions[:, None, :]
            )
        return costs.T

    def paired_costs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Integer costs between the points of a and b, (..., 2) arrays that
        broadcast against each other; every cost has the same bits as the
        matching entry of ``int_costs``."""
        return self._rounded(a, b).astype(np.int64)

    def _rounded(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The costs between the points of a and b, rounded to whole float64
        values, after the check that they convert to int64 exactly."""
        with np.errstate(over="ignore", invalid="ignore"):
            scaled = a[..., 0] - b[..., 0]
            dy = a[..., 1] - b[..., 1]
            np.multiply(scaled, scaled, out=scaled)
            np.multiply(dy, dy, out=dy)
            np.add(scaled, dy, out=scaled)
            np.multiply(scaled, self.scale / (self.diameter * self.diameter), out=scaled)
        # scaled is nonnegative; NaN and inf (overflows) fail the comparison too
        if scaled.size and not float(scaled.max()) < 2.0**62:
            raise flow.OverflowRiskError(
                "scaled costs exceed the exact integer range; lower the cost scaling"
            )
        return np.rint(scaled, out=scaled)


def cost_model_for(inst: Instance, policy: ScaledCostPolicy) -> CostModel:
    """The instance's cost model under the policy. One cost unit,
    diameter**2 / scale, must be a normal float, since the weights are whole
    numbers of it: at a subnormal scale it is inf, and the weights NaN."""
    # coincident blocks have no diameter; distances are then absolute
    model = CostModel(diameter=inst.diameter or 1.0, scale=policy.scale)
    if not sys.float_info.min <= model.units_per_cost <= sys.float_info.max:
        change = "raise" if model.units_per_cost > 1.0 else "lower"
        raise AssignmentError(
            f"scale {policy.scale:g} makes one cost unit {model.units_per_cost:g} squared "
            f"distance units, which is not a normal float; {change} the cost scaling"
        )
    return model


@dataclass(frozen=True)
class ScaledSolveResult:
    """Rich result of one balanced-assignment solve."""

    assignment: BalancedAssignment
    # Power weights from the LP duals, original squared-distance units,
    # minimum 0. Each positive-flow pair's weighted squared distance to its
    # center is least among all centers, up to consistency_tolerance().
    weights: PowerWeights
    cost_model: CostModel
    flow_solution: flow.FlowSolution  # .objective is the exact scaled cost


def solve_balanced(
    inst: Instance,
    centers: CenterSet,
    policy: ScaledCostPolicy = ScaledCostPolicy(),
    warm_potentials: np.ndarray | None = None,
) -> ScaledSolveResult:
    """Minimum-cost balanced assignment for these centers, certified by
    ``flow.certify`` (conservation, exact balance, optimality), plus power
    weights from the LP duals (see ``ScaledSolveResult.weights``)."""
    centers.validate_for(inst)
    model = cost_model_for(inst, policy)
    costs = model.int_costs(inst.locations(), centers.positions)
    trans = flow.TransshipmentInstance(
        costs=costs,
        supplies=inst.populations(),
        demands=centers.capacities,
    )
    sol = flow.solve_mcf(trans, warm_potentials=warm_potentials)
    flow.certify(trans, sol)
    asg = BalancedAssignment(
        block_indices=sol.supply_idx,
        center_indices=sol.demand_idx,
        persons=sol.amounts,
    )
    weights = sol.demand_potentials.astype(np.float64) * model.units_per_cost
    return ScaledSolveResult(
        assignment=asg,
        weights=weights,
        cost_model=model,
        flow_solution=sol,
    )


# Kept, with consistency_tolerance, only because perfbench/ imports them and
# wraps cli's binding as a span; the program checks with flow.certify.
@dataclass(frozen=True)
class ConsistencyReport:
    """Positive-flow pairs that violate the power-region condition."""

    violations: tuple[tuple[str, int, float], ...]  # (block id, center, excess margin)
    tolerance: float
    pairs_checked: int

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        state = "consistent" if self.ok else f"{len(self.violations)} violation(s)"
        return f"power consistency: {state} ({self.pairs_checked} pairs, tolerance {self.tolerance:g})"


def verify_power_consistency(
    inst: Instance,
    centers: CenterSet,
    asg: BalancedAssignment,
    weights: PowerWeights,
    tolerance: float,
) -> ConsistencyReport:
    """Check each positive-flow pair against the power-region condition.

    A pair (y, x) is violating when, in unscaled real arithmetic,
    d2(y, x) - w[x] exceeds min over x' of d2(y, x') - w[x'] by more than
    ``tolerance``.
    """
    w = np.asarray(weights, dtype=np.float64).reshape(-1)
    if w.shape[0] != centers.k:
        raise AssignmentError("one weight per center required")
    if len(asg.persons) == 0:
        return ConsistencyReport(violations=(), tolerance=tolerance, pairs_checked=0)
    locs = inst.locations()[asg.block_indices]
    # One center at a time, so no (e, k) array is built: the least power
    # distance of each entry, and the one to its assigned center.
    best = np.full(len(asg.persons), np.inf)
    assigned = np.empty(len(asg.persons))
    for j, ((cx, cy), wj) in enumerate(zip(centers.positions.tolist(), w.tolist())):
        dx = locs[:, 0] - cx
        dy = locs[:, 1] - cy
        power = dx * dx + dy * dy - wj
        np.minimum(best, power, out=best)
        mine = asg.center_indices == j
        assigned[mine] = power[mine]
    margins = assigned - best
    bad = np.flatnonzero(margins > tolerance)
    violations = tuple(
        (inst.ids[int(asg.block_indices[e])], int(asg.center_indices[e]), float(margins[e]))
        for e in bad
    )
    return ConsistencyReport(
        violations=violations, tolerance=tolerance, pairs_checked=int(len(asg.persons))
    )
