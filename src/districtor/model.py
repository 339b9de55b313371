"""Core domain types: blocks, instances, center sets, assignments, traces.

An :class:`Instance` is columnar and is the only representation of the
blocks: a tuple of ids, an (n, 2) location array and an (n,) population
array, row i of each describing block i, validated together when it is
built. All types are immutable value data and safe to share across
threads. Coordinates are dimensionless planar units (projection happens in
:mod:`districtor.dataio` before an Instance is built).
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .flow import SolveStats


class ModelError(ValueError):
    """Invalid domain data."""


class Instance:
    """A districting problem: blocks as columns plus the number of districts.

    Holds the block ids (a tuple of str), a read-only (n, 2) float64 array
    of locations and a read-only (n,) int64 array of populations, all in
    file order. The constructor validates every block at once; instances
    are not modified after construction.

    ``diameter`` is the diagonal of the blocks' bounding box. It must be 0
    (every block coincides) or a float whose square is a normal float, so
    that squared distances normalized by it neither overflow nor underflow.
    """

    def __init__(self, ids, locations, populations, k: int, name: str = "") -> None:
        ids = tuple(ids)
        n = len(ids)
        locs = np.array(locations, dtype=np.float64)
        pops = np.asarray(populations)
        if locs.shape != (n, 2) or pops.shape != (n,):
            raise ModelError(
                f"{n} block ids need (n, 2) locations and (n,) populations, "
                f"got {locs.shape} and {pops.shape}"
            )
        if n and pops.dtype.kind not in "iu":
            raise ModelError(f"populations must be integers, got dtype {pops.dtype}")
        if len(set(ids)) != n:
            dup = next(i for i, count in Counter(ids).items() if count > 1)
            raise ModelError(f"duplicate block id {dup!r}")
        pops = pops.astype(np.int64)
        bad = ~np.isfinite(locs).all(axis=1)
        if bad.any():
            raise ModelError(f"block {ids[bad.argmax()]!r}: non-finite coordinates")
        if (pops < 0).any():
            raise ModelError(f"block {ids[(pops < 0).argmax()]!r}: negative population")
        if k < 1:
            raise ModelError(f"k must be >= 1, got {k}")
        m = sum(pops.tolist())  # exact: an int64 sum could wrap around
        if m > np.iinfo(np.int64).max:
            raise ModelError(f"total population {m} exceeds the 64-bit integer range")
        if m < k:
            raise ModelError(
                f"total population {m} is smaller than k={k}; "
                "every district needs at least one resident"
            )
        x, y = locs.T  # one column at a time: an axis-0 reduction is slower
        diameter = math.hypot(float(x.max() - x.min()), float(y.max() - y.min()))
        if diameter and not sys.float_info.min <= diameter * diameter <= sys.float_info.max:
            raise ModelError(
                f"the blocks' bounding-box diagonal {diameter:g} is out of range: it must be 0 "
                "or have a square that is a normal float (about 1.5e-154 to 1.3e154)"
            )
        locs.setflags(write=False)
        pops.setflags(write=False)
        self.ids = ids
        self._locations = locs
        self._populations = pops
        self.k = k
        self.name = name
        self.m = m  # total population
        self.diameter = diameter

    @property
    def n_blocks(self) -> int:
        return len(self.ids)

    def locations(self) -> np.ndarray:
        """Block locations as a read-only (n, 2) float64 array, in file order."""
        return self._locations

    def populations(self) -> np.ndarray:
        """Block populations as a read-only (n,) int64 array, in file order."""
        return self._populations


@dataclass(frozen=True)
class CenterSet:
    """Ordered district centers plus the per-center resident capacity."""

    positions: np.ndarray  # (k, 2) float64
    capacities: np.ndarray  # (k,) int64

    def __post_init__(self) -> None:
        pos = np.asarray(self.positions, dtype=np.float64).reshape(-1, 2)
        caps = np.asarray(self.capacities, dtype=np.int64).reshape(-1)
        if pos.shape[0] != caps.shape[0]:
            raise ModelError("centers and capacities must have equal length")
        if pos.shape[0] == 0:
            raise ModelError("center set must be nonempty")
        if not np.all(np.isfinite(pos)):
            raise ModelError("center coordinates must be finite")
        if np.any(caps <= 0):
            raise ModelError("capacities must be positive")
        if caps.max() - caps.min() > 1:
            raise ModelError("capacities must differ pairwise by at most one")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "capacities", caps)
        pos.setflags(write=False)
        caps.setflags(write=False)

    @property
    def k(self) -> int:
        return int(self.positions.shape[0])

    def validate_for(self, inst: Instance) -> None:
        if self.k != inst.k:
            raise ModelError(f"center set has k={self.k}, instance expects k={inst.k}")
        if int(self.capacities.sum()) != inst.m:
            raise ModelError(
                f"capacities sum to {int(self.capacities.sum())}, instance population is {inst.m}"
            )


@dataclass(frozen=True)
class BalancedAssignment:
    """Per-block distribution of residents to centers.

    Stored as parallel arrays with one entry per positive flow; a block split
    across centers contributes several entries. Entries are sorted by
    (block index, center index).
    """

    block_indices: np.ndarray  # (e,) int64, row indices into the Instance columns
    center_indices: np.ndarray  # (e,) int64
    persons: np.ndarray  # (e,) int64, all positive

    def __post_init__(self) -> None:
        # copies: the assignment owns its arrays
        bi = np.array(self.block_indices, dtype=np.int64).reshape(-1)
        ci = np.array(self.center_indices, dtype=np.int64).reshape(-1)
        pe = np.array(self.persons, dtype=np.int64).reshape(-1)
        if not (bi.shape == ci.shape == pe.shape):
            raise ModelError("assignment arrays must have equal length")
        if np.any(pe <= 0):
            raise ModelError("assignment entries must carry positive persons")
        # Solver results and written assignment files are in order already;
        # only other entries are sorted (stably, so equal keys keep their order).
        tie = bi[1:] == bi[:-1]
        if np.any(bi[1:] < bi[:-1]) or np.any(ci[1:][tie] < ci[:-1][tie]):
            order = np.lexsort((ci, bi))
            bi, ci, pe = bi[order], ci[order], pe[order]
        for name, arr in (("block_indices", bi), ("center_indices", ci), ("persons", pe)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def per_center_population(self, k: int) -> np.ndarray:
        out = np.zeros(k, dtype=np.int64)
        np.add.at(out, self.center_indices, self.persons)
        return out

    # only perfbench/workloads.py calls it; the program checks with flow.certify
    def per_block_assigned(self, n_blocks: int) -> np.ndarray:
        out = np.zeros(n_blocks, dtype=np.int64)
        np.add.at(out, self.block_indices, self.persons)
        return out

    def centroids(self, inst: Instance, totals: np.ndarray) -> np.ndarray:
        """(k, 2) flow-weighted mean location of each center's residents, given
        their totals, ``per_center_population(k)``; NaN for a center with none."""
        counts = totals.astype(np.float64)
        counts[counts == 0] = np.nan
        locs = inst.locations()[self.block_indices]
        w = self.persons.astype(np.float64)
        # bincount adds in entry order, as a sequential sum would
        sums = np.column_stack(
            [np.bincount(self.center_indices, weights=locs[:, i] * w, minlength=len(totals))
             for i in (0, 1)]
        )
        return sums / counts[:, None]


@dataclass(frozen=True)
class IterationRecord:
    """One Lloyd iteration: cost after the assignment step, then center movement.

    ``solve`` holds the work counts of the iteration's flow solve and
    ``rejected`` the number of centers whose centroid move the cost guard
    refused. summary.json holds the run's totals of four solve counts;
    nothing else of either is written to the result set.
    """

    index: int
    cost: float  # original squared-distance units
    cost_scaled: int  # exact integer objective of the scaled solve
    max_displacement: float
    solve: SolveStats = SolveStats()
    rejected: int = 0


@dataclass(frozen=True)
class RunTrace:
    iterations: tuple[IterationRecord, ...]
    converged: bool
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "iterations", tuple(self.iterations))


# Power weights are a plain (k,) float64 array in original squared-distance
# units; the alias documents intent in signatures.
PowerWeights = np.ndarray


def balanced_capacities(m: int, k: int) -> np.ndarray:
    """Capacities floor(m/k) x i and ceil(m/k) x (k - i), summing to m.

    Entries are nondecreasing and differ pairwise by at most one.
    """
    if k < 1:
        raise ModelError(f"k must be >= 1, got {k}")
    if m < k:
        raise ModelError(f"m={m} is smaller than k={k}; some capacity would be zero")
    q, r = divmod(m, k)
    return np.array([q] * (k - r) + [q + 1] * r, dtype=np.int64)


def assignment_cost(inst: Instance, centers: CenterSet, asg: BalancedAssignment) -> float:
    """Total dispersion: sum over flows of persons x squared distance.

    Computes and checks nothing else: the caller passes an assignment that
    ``flow.certify`` (every solve) or ``validate`` (a result set read back)
    has found conserving and exactly balanced.
    """
    locs = inst.locations()[asg.block_indices]
    cpos = centers.positions[asg.center_indices]
    d2 = np.sum((locs - cpos) ** 2, axis=1)
    return float(np.dot(asg.persons.astype(np.float64), d2))
