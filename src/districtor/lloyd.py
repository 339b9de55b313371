"""Capacitated Lloyd iteration: seeding, assignment, centroid, convergence.

Each iteration solves an exact minimum-cost balanced assignment for the
current centers, then moves every center to the population-weighted
centroid of its assigned residents. A center move is accepted only when it
does not increase the scaled integer assignment cost, which makes the
recorded cost sequence nonincreasing in exact integer arithmetic; with
per-arc cost rounding, the unguarded real centroid can otherwise raise the
integer cost by a rounding-noise amount near convergence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .assignment import ScaledCostPolicy, ScaledSolveResult, cost_model_for, solve_balanced
from .model import (
    BalancedAssignment,
    CenterSet,
    Instance,
    IterationRecord,
    ModelError,
    PowerWeights,
    RunTrace,
    balanced_capacities,
)

DEFAULT_MAX_ITERATIONS = 200
RELATIVE_THRESHOLD = 1e-9  # of the block bounding-box diagonal


class SeedingError(ModelError):
    """Not enough distinct locations to place the requested centers."""


@dataclass(frozen=True)
class LloydConfig:
    seed: int = 0
    max_iterations: int = DEFAULT_MAX_ITERATIONS
    threshold: float | None = None  # planar units; None picks the relative default

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ModelError("max_iterations must be positive")
        if self.threshold is not None and not (self.threshold >= 0):
            raise ModelError("threshold must be nonnegative")


class RunResult(NamedTuple):
    centers: CenterSet
    assignment: BalancedAssignment
    weights: PowerWeights
    trace: RunTrace


def convergence_threshold(inst: Instance, cfg: LloydConfig, policy: ScaledCostPolicy) -> float:
    """The center displacement at which a run has converged: cfg.threshold,
    or by default RELATIVE_THRESHOLD of the cost model's diameter."""
    if cfg.threshold is not None:
        return cfg.threshold
    return RELATIVE_THRESHOLD * cost_model_for(inst, policy).diameter


def seed_centers(inst: Instance, k: int, seed: int | np.random.Generator) -> CenterSet:
    """Draw k distinct block locations, population-weighted then by squared
    distance to the nearest already-chosen center."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    locs = inst.locations()
    x, y = locs.T
    pops = inst.populations().astype(np.float64)
    positive = int(np.count_nonzero(pops > 0))
    if k > positive:
        raise SeedingError(
            f"k={k} exceeds the {positive} blocks with positive population"
        )
    first = int(rng.choice(inst.n_blocks, p=pops / pops.sum()))
    chosen = [first]

    def sq_dist(i: int) -> np.ndarray:
        dx, dy = x - x[i], y - y[i]
        return dx * dx + dy * dy

    d2 = sq_dist(first)
    while len(chosen) < k:
        mass = pops * d2
        total = mass.sum()
        if total <= 0:
            raise SeedingError(
                f"k={k} exceeds the distinct positive-population locations "
                f"({len(chosen)} found)"
            )
        nxt = int(rng.choice(inst.n_blocks, p=mass / total))
        chosen.append(nxt)
        d2 = np.minimum(d2, sq_dist(nxt))
    return CenterSet(
        positions=locs[chosen],
        capacities=balanced_capacities(inst.m, k),
    )


def centroid_step(inst: Instance, asg: BalancedAssignment) -> CenterSet:
    """Move each center to the flow-weighted mean of its assigned blocks.

    Capacities are the assignment totals: the balanced capacities on a
    certified assignment. ``CenterSet`` rejects a center with none.
    """
    totals = asg.per_center_population(int(asg.center_indices.max()) + 1)
    return CenterSet(positions=asg.centroids(inst, totals), capacities=totals)


def _guarded_positions(
    inst: Instance,
    res: ScaledSolveResult,
    current: CenterSet,
    candidate: CenterSet,
) -> np.ndarray:
    """Per center, accept the centroid only if the scaled integer cost of the
    fixed assignment strictly drops; otherwise keep the current position."""
    asg = res.assignment
    # Both sides are priced by paired_costs, which has the bits of int_costs,
    # over one gather of the block locations: (e, 2) gathers built a column
    # at a time, so their columns are contiguous.
    locs = np.take(inst.locations().T, asg.block_indices, axis=1).T

    def cost_per_center(positions: np.ndarray) -> np.ndarray:
        own = res.cost_model.paired_costs(
            locs, np.take(positions.T, asg.center_indices, axis=1).T
        )
        totals = np.zeros(current.k, dtype=np.int64)
        np.add.at(totals, asg.center_indices, asg.persons * own)
        return totals

    accept = cost_per_center(candidate.positions) < cost_per_center(current.positions)
    return np.where(accept[:, None], candidate.positions, current.positions)


def run(
    inst: Instance,
    cfg: LloydConfig = LloydConfig(),
    policy: ScaledCostPolicy = ScaledCostPolicy(),
) -> RunResult:
    """Alternate exact balanced assignment and centroid moves to convergence.

    Convergence is max center displacement <= threshold. The returned
    assignment and weights always correspond exactly to the returned
    centers. On non-convergence, the last (lowest-cost) state is returned
    with ``converged=False`` in the trace.
    """
    threshold = convergence_threshold(inst, cfg, policy)
    centers = seed_centers(inst, inst.k, cfg.seed)
    records: list[IterationRecord] = []
    warm: np.ndarray | None = None
    converged = False

    for it in range(cfg.max_iterations):
        res = solve_balanced(inst, centers, policy, warm_potentials=warm)
        candidate = centroid_step(inst, res.assignment)
        new_positions = _guarded_positions(inst, res, centers, candidate)
        disp = float(np.sqrt(((new_positions - centers.positions) ** 2).sum(axis=1)).max())
        records.append(
            IterationRecord(
                index=it,
                cost=res.flow_solution.objective * res.cost_model.units_per_cost,
                cost_scaled=res.flow_solution.objective,
                max_displacement=disp,
                solve=res.flow_solution.stats,
                rejected=int(np.any(new_positions != candidate.positions, axis=1).sum()),
            )
        )
        if disp <= threshold:
            converged = True
            break
        if it + 1 == cfg.max_iterations:
            break
        centers = CenterSet(positions=new_positions, capacities=centers.capacities)
        # The first move carries the seeded centers furthest, so the seeds'
        # potentials are a poor start for its solve, which starts cold: on
        # the benchmark's k = 53 run it makes 86 augmentations after 5
        # sweeps, against 340 after 24 from the seeds' potentials (on its
        # 100k-block run, 66 after 5 against 17 after 6).
        warm = res.flow_solution.demand_potentials if it else None
        # Only the centers and the warm potentials carry over: the next
        # solve's cost matrix is built while nothing else of this one lives.
        del res, candidate

    trace = RunTrace(iterations=tuple(records), converged=converged, seed=cfg.seed)
    return RunResult(
        centers=centers,
        assignment=res.assignment,
        weights=res.weights,
        trace=trace,
    )
