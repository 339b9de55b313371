"""Independent references used by the test suite.

The brute-force references solve by direct enumeration of the definitions,
for a handful of persons and centers. ``linprog_transport`` and
``network_simplex_transport`` hand the same transshipment to two outside
solvers, scipy's HiGHS and networkx's network simplex, for instances of
hundreds of blocks. None of them shares machinery with the production
solver, so each can serve as an oracle. ``point_in_cell`` reads the
power-cell condition directly from its definition.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from districtor.model import BalancedAssignment, CenterSet, Instance

MAX_ORACLE_PERSONS = 10
MAX_ORACLE_CENTERS = 3


class OracleBoundError(ValueError):
    """Instance is too large for exhaustive enumeration."""


def _compositions(total: int, bounds: tuple[int, ...]):
    """All ways to split `total` into len(bounds) parts with 0 <= part <= bound."""
    if len(bounds) == 1:
        if total <= bounds[0]:
            yield (total,)
        return
    for first in range(min(total, bounds[0]) + 1):
        for rest in _compositions(total - first, bounds[1:]):
            yield (first,) + rest


def brute_force_transport(costs, supplies, demands) -> int:
    """Exact minimum cost of a dense integral transshipment, by enumeration.

    Dynamic program over supply nodes and remaining demand vectors; suitable
    for a handful of nodes per side only.
    """
    cost_rows = [tuple(int(c) for c in row) for row in costs]
    supply = [int(s) for s in supplies]
    demand = tuple(int(d) for d in demands)
    if sum(supply) != sum(demand):
        raise ValueError("total supply must equal total demand")

    @lru_cache(maxsize=None)
    def best(i: int, remaining: tuple[int, ...]) -> int:
        if i == len(supply):
            return 0
        row = cost_rows[i]
        out = None
        for parts in _compositions(supply[i], remaining):
            rest = best(i + 1, tuple(r - p for r, p in zip(remaining, parts)))
            here = sum(p * c for p, c in zip(parts, row)) + rest
            if out is None or here < out:
                out = here
        if out is None:
            raise ValueError("infeasible remainder")
        return out

    return best(0, demand)


def linprog_transport(costs, supplies, demands) -> tuple[float, np.ndarray]:
    """Optimal objective and demand duals of a dense transshipment, by HiGHS.

    The duals follow the production convention, u[y] + v[x] <= costs[y, x],
    and are unique only up to a constant shared with the supply duals.
    """
    from scipy.optimize import linprog
    from scipy.sparse import csr_array, vstack

    c = np.asarray(costs, dtype=np.float64)
    n, k = c.shape
    arcs = np.arange(n * k)
    ones = np.ones(n * k)
    by_supply = csr_array((ones, (arcs // k, arcs)), shape=(n, n * k))
    by_demand = csr_array((ones, (arcs % k, arcs)), shape=(k, n * k))
    res = linprog(
        c.reshape(-1),
        A_eq=vstack([by_supply, by_demand]),
        b_eq=np.concatenate([supplies, demands]).astype(np.float64),
        bounds=(0, None),
        method="highs",
    )
    if res.status != 0:
        raise ValueError(f"linprog failed: {res.message}")
    return float(res.fun), np.asarray(res.eqlin.marginals[n:])


def network_simplex_transport(costs, supplies, demands) -> int:
    """Exact integer optimum of a dense transshipment, by network simplex."""
    import networkx as nx

    g = nx.DiGraph()
    for y, s in enumerate(supplies):
        g.add_node(("s", y), demand=-int(s))
    for x, d in enumerate(demands):
        g.add_node(("d", x), demand=int(d))
    for y, row in enumerate(np.asarray(costs).tolist()):
        for x, cost in enumerate(row):
            g.add_edge(("s", y), ("d", x), weight=cost)
    cost, _ = nx.network_simplex(g)
    return int(cost)


def dijkstra_reprice(rel, v, received, demands) -> list[int]:
    """Demand potentials after one reprice of successive shortest paths.

    A heap Dijkstra over the whole relocation table ``rel`` (None where an
    arc is absent) from every excess node at distance 0, on the reduced
    costs ``rel[a][b] + v[a] - v[b]``, stopped at the first deficit node it
    settles, at distance D. Each potential rises by min(distance, D),
    unreached nodes by D. This is the search that the production solver's
    level-by-level reprice replaced; it shares none of its bookkeeping.
    """
    import heapq

    k = len(v)
    dist: list[int | None] = [None] * k
    heap: list[tuple[int, int]] = []
    for x in range(k):
        if received[x] > demands[x]:
            dist[x] = 0
            heapq.heappush(heap, (0, x))
    done = [False] * k
    while heap:
        d, a = heapq.heappop(heap)
        if done[a]:
            continue
        done[a] = True
        if received[a] < demands[a]:
            return [va + (d if da is None else min(da, d)) for va, da in zip(v, dist)]
        for b in range(k):
            raw = rel[a][b]
            if raw is None or done[b]:
                continue
            nd = d + raw + v[a] - v[b]
            if dist[b] is None or nd < dist[b]:
                dist[b] = nd
                heapq.heappush(heap, (nd, b))
    raise ValueError("no deficit node is reachable")


def brute_force_balanced(inst: Instance, centers: CenterSet) -> tuple[BalancedAssignment, float]:
    """Minimum-cost balanced assignment by exhaustive enumeration.

    Treats each person as a unit and every block as splittable; returns the
    first optimum in lexicographic enumeration order together with its exact
    unscaled cost.
    """
    centers.validate_for(inst)
    if inst.m > MAX_ORACLE_PERSONS:
        raise OracleBoundError(f"oracle handles at most {MAX_ORACLE_PERSONS} persons, got {inst.m}")
    if centers.k > MAX_ORACLE_CENTERS:
        raise OracleBoundError(f"oracle handles at most {MAX_ORACLE_CENTERS} centers, got {centers.k}")

    locs = inst.locations()
    pops = inst.populations()
    k = centers.k
    d2 = ((locs[:, None, :] - centers.positions[None, :, :]) ** 2).sum(axis=2)

    best_cost = math.inf
    best_rows: list[tuple[int, int, int]] | None = None
    rows: list[tuple[int, int, int]] = []

    def recurse(i: int, remaining: tuple[int, ...], acc: float) -> None:
        nonlocal best_cost, best_rows
        if acc >= best_cost:
            return
        if i == inst.n_blocks:
            best_cost = acc
            best_rows = list(rows)
            return
        pop = int(pops[i])
        if pop == 0:
            recurse(i + 1, remaining, acc)
            return
        for parts in _compositions(pop, remaining):
            added = sum(p * d2[i, j] for j, p in enumerate(parts) if p)
            if acc + added >= best_cost:
                continue
            for j, p in enumerate(parts):
                if p:
                    rows.append((i, j, p))
            recurse(i + 1, tuple(r - p for r, p in zip(remaining, parts)), acc + added)
            for j, p in enumerate(parts):
                if p:
                    rows.pop()

    recurse(0, tuple(int(c) for c in centers.capacities), 0.0)
    assert best_rows is not None
    asg = BalancedAssignment(
        block_indices=np.array([r[0] for r in best_rows], dtype=np.int64),
        center_indices=np.array([r[1] for r in best_rows], dtype=np.int64),
        persons=np.array([r[2] for r in best_rows], dtype=np.int64),
    )
    return asg, float(best_cost)


def naive_centroid(points, weights) -> tuple[float, float]:
    """Weighted mean of points; cross-checks the centroid step."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    w = np.asarray(weights, dtype=np.float64).reshape(-1)
    total = w.sum()
    if total <= 0:
        raise ValueError("total weight must be positive")
    mean = (pts * w[:, None]).sum(axis=0) / total
    return float(mean[0]), float(mean[1])


def point_in_cell(p, cell_index: int, centers, weights, tolerance: float) -> bool:
    """True when p is weighted-no-farther from center ``cell_index`` than
    from any other, within tolerance: the power-cell condition, read from
    the definition rather than from the clipped polygons."""
    pos = np.asarray(getattr(centers, "positions", centers), dtype=np.float64).reshape(-1, 2)
    w = np.asarray(weights, dtype=np.float64).reshape(-1)
    pt = np.asarray(p, dtype=np.float64).reshape(2)
    power = np.sum((pos - pt) ** 2, axis=1) - w
    return bool(power[cell_index] <= power.min() + tolerance)


def swap_heuristic(locations, centers, matching: list[int]) -> list[int]:
    """Pairwise-exchange local search on a unit-capacity matching.

    Repeatedly applies the first cost-reducing swap of two residents'
    centers until none exists. This is the local-exchange rule that fails
    to reach the optimum on the hexagon counter-example.
    """
    locs = np.asarray(locations, dtype=np.float64).reshape(-1, 2)
    cpos = np.asarray(centers, dtype=np.float64).reshape(-1, 2)
    assign = list(matching)

    def d2(i: int, x: int) -> float:
        dx = locs[i, 0] - cpos[x, 0]
        dy = locs[i, 1] - cpos[x, 1]
        return dx * dx + dy * dy

    improved = True
    while improved:
        improved = False
        for i in range(len(assign)):
            for j in range(i + 1, len(assign)):
                before = d2(i, assign[i]) + d2(j, assign[j])
                after = d2(i, assign[j]) + d2(j, assign[i])
                if after < before:
                    assign[i], assign[j] = assign[j], assign[i]
                    improved = True
    return assign
