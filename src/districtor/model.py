"""Core domain types: blocks, instances, center sets, assignments, traces.

An :class:`Instance` is columnar: block ids, an (n, 2) location array and
an (n,) population array, validated together when it is built.
:class:`Block` is the per-record view of one row, used by
``Instance.from_blocks`` and ``Instance.blocks``. All types are immutable
value data and safe to share across threads. Coordinates are
dimensionless planar units (projection happens in :mod:`districtor.dataio`
before an Instance is built).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .flow import SolveStats


class ModelError(ValueError):
    """Invalid domain data."""


class Point2(NamedTuple):
    """A planar point."""

    x: float
    y: float

    def is_finite(self) -> bool:
        return math.isfinite(self.x) and math.isfinite(self.y)


def squared_distance(a, b) -> float:
    """Squared Euclidean distance between two planar points.

    Accepts any pair of indexables with [0] and [1] coordinates.
    """
    dx = float(a[0]) - float(b[0])
    dy = float(a[1]) - float(b[1])
    return dx * dx + dy * dy


@dataclass(frozen=True)
class Block:
    """A weighted population point: one census-block-style record."""

    id: str
    location: Point2
    population: int

    def __post_init__(self) -> None:
        if not isinstance(self.population, int) or isinstance(self.population, bool):
            raise ModelError(f"block {self.id!r}: population must be an integer")
        if self.population < 0:
            raise ModelError(f"block {self.id!r}: population {self.population} is negative")
        loc = Point2(*self.location)
        if not loc.is_finite():
            raise ModelError(f"block {self.id!r}: non-finite coordinates {tuple(self.location)}")
        object.__setattr__(self, "location", loc)


class Instance:
    """A districting problem: blocks as columns plus the number of districts.

    Holds the block ids (a tuple of str), a read-only (n, 2) float64 array
    of locations and a read-only (n,) int64 array of populations, all in
    file order. The constructor validates every block at once; instances
    are not modified after construction.
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
        locs.setflags(write=False)
        pops.setflags(write=False)
        self.ids = ids
        self._locations = locs
        self._populations = pops
        self.k = k
        self.name = name
        self.m = m  # total population

    @classmethod
    def from_blocks(cls, blocks, k: int, name: str = "") -> Instance:
        """Build an instance from validated :class:`Block` records."""
        blocks = tuple(blocks)
        locations = np.reshape([b.location for b in blocks], (-1, 2))
        return cls([b.id for b in blocks], locations, [b.population for b in blocks], k, name)

    @property
    def blocks(self) -> tuple[Block, ...]:
        """The blocks as :class:`Block` records, built on each access."""
        return tuple(
            Block(id=i, location=Point2(x, y), population=p)
            for i, (x, y), p in zip(
                self.ids, self._locations.tolist(), self._populations.tolist()
            )
        )

    @property
    def n_blocks(self) -> int:
        return len(self.ids)

    @cached_property
    def diameter(self) -> float:
        """Diagonal of the blocks' bounding box (0.0 when all coincide),
        computed on first use."""
        locs = self._locations
        span = locs.max(axis=0) - locs.min(axis=0)
        return float(math.hypot(float(span[0]), float(span[1])))

    def locations(self) -> np.ndarray:
        """Block locations as a read-only (n, 2) float64 array, in file order."""
        return self._locations

    def populations(self) -> np.ndarray:
        """Block populations as a read-only (n,) int64 array, in file order."""
        return self._populations

    def block_ids(self) -> list[str]:
        return list(self.ids)


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
        bi = np.asarray(self.block_indices, dtype=np.int64).reshape(-1)
        ci = np.asarray(self.center_indices, dtype=np.int64).reshape(-1)
        pe = np.asarray(self.persons, dtype=np.int64).reshape(-1)
        if not (bi.shape == ci.shape == pe.shape):
            raise ModelError("assignment arrays must have equal length")
        if np.any(pe <= 0):
            raise ModelError("assignment entries must carry positive persons")
        order = np.lexsort((ci, bi))
        object.__setattr__(self, "block_indices", bi[order])
        object.__setattr__(self, "center_indices", ci[order])
        object.__setattr__(self, "persons", pe[order])
        for arr in (self.block_indices, self.center_indices, self.persons):
            arr.setflags(write=False)

    def per_center_population(self, k: int) -> np.ndarray:
        out = np.zeros(k, dtype=np.int64)
        np.add.at(out, self.center_indices, self.persons)
        return out

    def per_block_assigned(self, n_blocks: int) -> np.ndarray:
        out = np.zeros(n_blocks, dtype=np.int64)
        np.add.at(out, self.block_indices, self.persons)
        return out

    def centroids(self, inst: Instance, k: int) -> np.ndarray:
        """(k, 2) flow-weighted mean location of each center's residents; NaN
        for a center with none."""
        locs = inst.locations()[self.block_indices]
        w = self.persons.astype(np.float64)
        sums = np.zeros((k, 2), dtype=np.float64)
        np.add.at(sums, self.center_indices, locs * w[:, None])
        counts = self.per_center_population(k).astype(np.float64)
        counts[counts == 0] = np.nan
        return sums / counts[:, None]

    def validate(self, inst: Instance, centers: CenterSet) -> None:
        """Check conservation per block and exact balance per center."""
        centers.validate_for(inst)
        if len(self.block_indices) and (
            self.block_indices.min() < 0 or self.block_indices.max() >= inst.n_blocks
        ):
            raise ModelError("assignment references a block outside the instance")
        if len(self.center_indices) and (
            self.center_indices.min() < 0 or self.center_indices.max() >= centers.k
        ):
            raise ModelError("assignment references a center outside the center set")
        assigned = self.per_block_assigned(inst.n_blocks)
        pops = inst.populations()
        if not np.array_equal(assigned, pops):
            bad = int(np.flatnonzero(assigned != pops)[0])
            raise ModelError(
                f"block {inst.ids[bad]!r}: assigned {int(assigned[bad])} persons, "
                f"population is {int(pops[bad])}"
            )
        totals = self.per_center_population(centers.k)
        if not np.array_equal(totals, centers.capacities):
            bad = int(np.flatnonzero(totals != centers.capacities)[0])
            raise ModelError(
                f"center {bad}: assigned {int(totals[bad])} persons, capacity is "
                f"{int(centers.capacities[bad])}"
            )


@dataclass(frozen=True)
class IterationRecord:
    """One Lloyd iteration: cost after the assignment step, then center movement.

    ``solve`` holds the work counts of the iteration's flow solve and
    ``rejected`` the number of centers whose centroid move the cost guard
    refused. Neither is written to the result set.
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

    def validate(self) -> None:
        """The scaled cost sequence must be nonincreasing."""
        costs = [r.cost_scaled for r in self.iterations]
        for a, b in zip(costs, costs[1:]):
            if b > a:
                raise ModelError(f"trace cost increased: {a} -> {b}")


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

    Rejects assignments that violate conservation or balance.
    """
    asg.validate(inst, centers)
    if len(asg.persons) == 0:
        return 0.0
    locs = inst.locations()[asg.block_indices]
    cpos = centers.positions[asg.center_indices]
    d2 = np.sum((locs - cpos) ** 2, axis=1)
    return float(np.dot(asg.persons.astype(np.float64), d2))
