"""Shared instance generators and fixtures."""

from __future__ import annotations

import numpy as np
import pytest

from districtor import flow
from districtor.assignment import ScaledCostPolicy, cost_model_for
from districtor.model import CenterSet, Instance, balanced_capacities


def make_instance(locs, pops, k: int, name: str = "test") -> Instance:
    locs = np.asarray(locs, dtype=np.float64).reshape(-1, 2)
    pops = [int(p) for p in np.asarray(pops).reshape(-1)]
    ids = [f"b{i:06d}" for i in range(len(pops))]
    return Instance(ids, locs, pops, k, name)


def distribute_population(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """Lognormal block weights scaled to sum exactly to m (zeros allowed)."""
    w = rng.lognormal(mean=1.0, sigma=1.1, size=n)
    pops = np.floor(m * w / w.sum()).astype(np.int64)
    short = int(m - pops.sum())
    assert 0 <= short <= n
    pops[:short] += 1
    assert int(pops.sum()) == m
    return pops


def gaussian_instance(
    seed: int, n: int, m: int, k: int, clusters: int = 6, name: str = "gauss"
) -> Instance:
    """Mixture-of-Gaussians block geometry with lognormal populations."""
    rng = np.random.default_rng(seed)
    hubs = rng.uniform(0.0, 400.0, size=(clusters, 2))
    spread = rng.uniform(8.0, 35.0, size=clusters)
    mix = rng.integers(0, clusters, size=n)
    locs = hubs[mix] + rng.normal(0.0, 1.0, size=(n, 2)) * spread[mix][:, None]
    pops = distribute_population(rng, n, m)
    return make_instance(locs, pops, k, name=name)


def transshipment(inst: Instance, centers: CenterSet) -> flow.TransshipmentInstance:
    """The flow instance that solve_balanced builds for these centers."""
    costs = cost_model_for(inst, ScaledCostPolicy()).int_costs(
        inst.locations(), centers.positions
    )
    return flow.TransshipmentInstance(costs, inst.populations(), centers.capacities)


def grid_transshipment(
    seed: int, n: int, side: int, k: int, zeros: float = 0.0, heavy: int = 0, warm: bool = False
) -> tuple[flow.TransshipmentInstance, np.ndarray | None]:
    """Blocks and centers on a small integer grid, with squared distances
    as costs: many exactly tied costs. A share ``zeros`` of the blocks has
    no supply, and ``heavy`` blocks hold more than a district's demand, so
    they must split. Returns the instance and, with ``warm``, random
    starting potentials."""
    rng = np.random.default_rng(seed)
    locs = rng.integers(0, side + 1, size=(n, 2))
    centers = rng.integers(0, side + 1, size=(k, 2))
    costs = ((locs[:, np.newaxis, :] - centers[np.newaxis, :, :]) ** 2).sum(axis=2)
    supplies = rng.integers(1, 40, size=n)
    supplies[rng.random(n) < zeros] = 0
    supplies[rng.integers(0, n, size=heavy)] += 2 * (int(supplies.sum()) // k + 1)
    supplies[0] += int(supplies.sum()) == 0
    total = int(supplies.sum())
    demands = np.full(k, total // k)
    demands[: total % k] += 1
    inst = flow.TransshipmentInstance(costs, supplies, demands)
    potentials = rng.integers(-(side**2), side**2 + 1, size=k) if warm else None
    return inst, potentials


def uniform_instance(seed: int, n: int, m: int, k: int, name: str = "uniform") -> Instance:
    rng = np.random.default_rng(seed)
    locs = rng.uniform(0.0, 100.0, size=(n, 2))
    pops = distribute_population(rng, n, m)
    return make_instance(locs, pops, k, name=name)


def random_small_instance(rng: np.random.Generator, max_persons: int = 8, max_k: int = 3):
    """Tiny instance plus arbitrary centers, for oracle comparisons."""
    k = int(rng.integers(1, max_k + 1))
    m = int(rng.integers(k, max_persons + 1))
    n_blocks = int(rng.integers(1, 6))
    pops = np.zeros(n_blocks, dtype=np.int64)
    for _ in range(m):
        pops[int(rng.integers(0, n_blocks))] += 1
    locs = rng.uniform(-5.0, 5.0, size=(n_blocks, 2))
    inst = make_instance(locs, pops, k)
    centers = CenterSet(
        positions=rng.uniform(-5.0, 5.0, size=(k, 2)),
        capacities=balanced_capacities(m, k),
    )
    return inst, centers


def hexagon_instance(eps: float = 0.01):
    """Unit hexagon counter-example: centers on even vertices, residents on
    odd vertices rotated toward their short-edge partner by eps radians.

    Returns (instance, centers, resident_locs). The short matching pairs
    resident i with center i; the long matching pairs resident i with
    center (i + 1) mod 3.
    """
    center_angles = [0.0, 2 * np.pi / 3, 4 * np.pi / 3]
    resident_angles = [a + np.pi / 3 - eps for a in center_angles]
    cpos = np.array([[np.cos(a), np.sin(a)] for a in center_angles])
    rpos = np.array([[np.cos(a), np.sin(a)] for a in resident_angles])
    inst = make_instance(rpos, [1, 1, 1], k=3, name="hexagon")
    centers = CenterSet(positions=cpos, capacities=np.array([1, 1, 1]))
    return inst, centers, rpos


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
