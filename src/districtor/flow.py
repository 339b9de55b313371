"""Exact minimum-cost solver for dense bipartite transshipment instances.

Specialized to instances with many supply nodes and few demand nodes
(blocks vs. district centers). A solve runs in three steps:

1. Dual sweeps. The demand potentials maximize a concave k-dimensional
   dual. Gauss-Seidel sweeps of exact coordinate ascent, in numpy, set each
   potential in turn to the weighted quantile at which the supply nodes
   that prefer its node hold its demand. They start from the given
   potentials and stop once the greedy start, every supply node at its
   cheapest demand node, overfills by at most 1/32 of an average demand, or
   when a sweep does not lower that overfill.
2. Repair. Successive shortest paths with node potentials move the
   remaining overfill from the greedy start, augmenting along shortest
   paths in a compact demand-node graph whose arc (a, b) carries the
   cheapest relocation of one flow unit from demand node a to demand node
   b. A k x k table holds the current minimum of every arc, and the
   searches read it; it is kept exact in O(k) work per supply node that
   joins or leaves a demand node, from lazily pruned heaps of relocation
   costs per ordered pair. One augmentation costs O(k^2) table reads plus
   O(k log n) heap work per moved supply node, instead of a scan of all
   supply nodes.
3. Certification. :func:`certify` re-checks conservation, the objective,
   dual feasibility and complementary slackness of the result.

All arithmetic is on Python integers or int64 arrays, so the optimality
certificate holds exactly. :class:`SolveStats` counts the work of each
solve.
"""

from __future__ import annotations

import dataclasses
import heapq
from dataclasses import dataclass

import numpy as np

# Feasible objectives must stay clear of int64; reject instances that could
# overflow sum(flow * cost).
_SAFE_OBJECTIVE = 2**62

# Dual sweeps stop once the greedy start overfills its demand nodes by at
# most 1/_SWEEP_STOP of an average demand. The constant balances the numpy
# work of one more sweep (n*k entries) against the augmentations it saves
# (a search of the k x k table each); it was set from augmentation counts,
# not timings.
_SWEEP_STOP = 32


class FlowError(ValueError):
    """Invalid transshipment instance or solver failure."""


class InfeasibleError(FlowError):
    """Total supply and total demand disagree."""


class OverflowRiskError(FlowError):
    """Costs are too large for exact 64-bit arithmetic."""


@dataclass(frozen=True)
class TransshipmentInstance:
    """Dense bipartite min-cost flow instance.

    ``costs[y, x]`` is the integer cost of shipping one unit from supply
    node y to demand node x. Every (supply, demand) arc exists.
    """

    costs: np.ndarray  # (n, k) int64
    supplies: np.ndarray  # (n,) int64, nonnegative
    demands: np.ndarray  # (k,) int64, nonnegative

    def __post_init__(self) -> None:
        costs = np.asarray(self.costs, dtype=np.int64)
        supplies = np.asarray(self.supplies, dtype=np.int64).reshape(-1)
        demands = np.asarray(self.demands, dtype=np.int64).reshape(-1)
        if costs.ndim != 2:
            raise FlowError("costs must be a 2-d matrix")
        n, k = costs.shape
        if supplies.shape[0] != n or demands.shape[0] != k:
            raise FlowError(
                f"shape mismatch: costs {costs.shape}, supplies {supplies.shape}, "
                f"demands {demands.shape}"
            )
        if n == 0 or k == 0:
            raise FlowError("instance must have at least one supply and one demand node")
        if np.any(supplies < 0) or np.any(demands < 0):
            raise FlowError("supplies and demands must be nonnegative")
        total = int(supplies.sum())
        if total != int(demands.sum()):
            raise InfeasibleError(
                f"total supply {total} != total demand {int(demands.sum())}"
            )
        max_cost = int(np.abs(costs).max()) if costs.size else 0
        if total > 0 and max_cost > _SAFE_OBJECTIVE // max(total, 1):
            raise OverflowRiskError(
                "cost magnitudes risk 64-bit overflow on a feasible flow; "
                "lower the cost scaling"
            )
        object.__setattr__(self, "costs", costs)
        object.__setattr__(self, "supplies", supplies)
        object.__setattr__(self, "demands", demands)
        for arr in (costs, supplies, demands):
            arr.setflags(write=False)

    @property
    def n_supply(self) -> int:
        return int(self.costs.shape[0])

    @property
    def n_demand(self) -> int:
        return int(self.costs.shape[1])


@dataclass(frozen=True)
class SolveStats:
    """Deterministic work counts of one solve.

    ``excess_before`` and ``excess_after`` are the total overfill of the
    greedy start (every block at its cheapest center under the potentials)
    before and after the dual sweeps. ``queue_reads`` counts reads of a pair
    queue's minimum, ``stale_pops`` the queue entries dropped because their
    block had left the pair's source center or was already counted, and
    ``heap_pushes`` the entries pushed onto the queues' overflow heaps.
    """

    augmentations: int = 0
    reprices: int = 0
    sweeps: int = 0
    excess_before: int = 0
    excess_after: int = 0
    queue_reads: int = 0
    stale_pops: int = 0
    heap_pushes: int = 0


@dataclass(frozen=True)
class FlowSolution:
    """Integral optimal flow plus exact dual potentials.

    Entries are sorted by (supply index, demand index). For every arc,
    ``supply_potentials[y] <= costs[y, x] - demand_potentials[x]`` and the
    inequality is tight on every positive-flow arc.
    """

    supply_idx: np.ndarray  # (e,) int64
    demand_idx: np.ndarray  # (e,) int64
    amounts: np.ndarray  # (e,) int64, positive
    supply_potentials: np.ndarray  # (n,) int64
    demand_potentials: np.ndarray  # (k,) int64
    objective: int
    stats: SolveStats = SolveStats()


def solve_mcf(
    inst: TransshipmentInstance,
    warm_potentials: np.ndarray | None = None,
) -> FlowSolution:
    """Solve the transshipment instance exactly.

    ``warm_potentials`` are optional starting demand potentials (any integer
    vector is valid); a good warm start cuts the number of augmentations.
    """
    solver = _Solver(inst, warm_potentials)
    solver.run()
    return solver.solution()


def certify(inst: TransshipmentInstance, sol: FlowSolution) -> None:
    """Raise FlowError unless the solution is exactly feasible and optimal.

    Checks conservation at every node, the recomputed objective, dual
    feasibility, and complementary slackness, all in integer arithmetic.
    """
    if np.any(sol.amounts <= 0):
        raise FlowError("certificate: nonpositive flow entry")
    sent = np.zeros(inst.n_supply, dtype=np.int64)
    np.add.at(sent, sol.supply_idx, sol.amounts)
    if not np.array_equal(sent, inst.supplies):
        raise FlowError("certificate: supply conservation violated")
    recv = np.zeros(inst.n_demand, dtype=np.int64)
    np.add.at(recv, sol.demand_idx, sol.amounts)
    if not np.array_equal(recv, inst.demands):
        raise FlowError("certificate: demand conservation violated")
    arc_costs = inst.costs[sol.supply_idx, sol.demand_idx]
    objective = int(np.dot(sol.amounts, arc_costs))
    if objective != sol.objective:
        raise FlowError(
            f"certificate: objective mismatch, reported {sol.objective}, "
            f"recomputed {objective}"
        )
    reduced = inst.costs - sol.demand_potentials[np.newaxis, :]
    if np.any(sol.supply_potentials[:, np.newaxis] > reduced):
        raise FlowError("certificate: dual infeasible")
    tight = reduced[sol.supply_idx, sol.demand_idx] == sol.supply_potentials[sol.supply_idx]
    if not np.all(tight):
        raise FlowError("certificate: complementary slackness violated")


def _greedy(
    Ca: np.ndarray, s: np.ndarray, demands: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """Each supply row's cheapest demand node under potentials v (lowest
    index on ties), the amount each demand node receives, and the excess:
    the total overfill of the demand nodes."""
    choice = np.argmin(Ca - v[np.newaxis, :], axis=1)
    received = np.zeros(v.shape[0], dtype=np.int64)
    np.add.at(received, choice, s)
    return choice, received, int(np.maximum(received - demands, 0).sum())


def _first_reaching(keys: np.ndarray, w: np.ndarray, need: int) -> int:
    """Smallest key at which the weight of the keys up to it reaches need.

    Requires 0 < need <= w.sum(). Only the smallest keys are sorted: enough
    of them to carry about twice the needed weight, doubled until they do.
    """
    total = len(keys)
    j = min(total, 2 * (need * total // int(w.sum())) + 16)
    while True:
        part = np.argpartition(keys, j - 1)[:j] if j < total else np.arange(total)
        part = part[np.argsort(keys[part])]
        cum = np.cumsum(w[part])
        if cum[-1] >= need:
            return int(keys[part[np.searchsorted(cum, need)]])
        j = min(total, 2 * j)


def _quantile(t: np.ndarray, s: np.ndarray, d: int, cur: int) -> int:
    """Smallest t* with s[t <= t*].sum() >= d, searched on the side of cur
    that must move. Tied entries in any order give the same value."""
    if d == 0:
        return int(t.min())
    below = t < cur
    held = int(s[below].sum())
    if held >= d:  # too much prefers this node strictly: lower the threshold
        return -_first_reaching(-t[below], s[below], held - d + 1)
    above = t > cur
    short = d - (int(s.sum()) - int(s[above].sum()))
    if short <= 0:
        return cur
    return _first_reaching(t[above], s[above], short)


def _sweep(Ca: np.ndarray, s: np.ndarray, demands: np.ndarray, v: np.ndarray) -> np.ndarray:
    """One Gauss-Seidel pass of exact coordinate ascent on the dual.

    In turn, v[x] becomes the quantile at which the rows that prefer x, that
    is C[y, x] - v[x] below their best other reduced cost, hold demands[x].
    The result is normalized to max(v) = 0, which keeps every intermediate
    within int64 for potentials spread up to 2**62.
    """
    v = v - v.max()
    k = v.shape[0]
    # after[:, x]: cheapest reduced cost over nodes x.. at the old potentials
    after = np.minimum.accumulate((Ca - v[np.newaxis, :])[:, ::-1], axis=1)[:, ::-1]
    before = None  # cheapest reduced cost over nodes ..x-1 at the new potentials
    for x in range(k):
        if x == k - 1:
            rest = before
        elif before is None:
            rest = after[:, x + 1]
        else:
            rest = np.minimum(before, after[:, x + 1])
        col = Ca[:, x]
        v[x] = _quantile(col - rest, s, int(demands[x]), int(v[x]))
        own = col - v[x]
        before = own if before is None else np.minimum(before, own)
    return v - v.max()


def _dual_sweeps(
    C: np.ndarray, supplies: np.ndarray, demands: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, SolveStats]:
    """Improve the potentials by dual sweeps, then build the greedy start.

    Sweeps stop once the greedy start overfills its demand nodes by at most
    total / (_SWEEP_STOP * k), or when a sweep does not lower that excess
    (its potentials are then dropped). Returns the potentials, each supply
    node's greedy demand node (-1 when it has no supply), the amounts
    received and the sweep counts.
    """
    k = v.shape[0]
    active = np.flatnonzero(supplies > 0)
    Ca = C[active]
    s = supplies[active]
    total = int(s.sum())
    choice, received, excess = _greedy(Ca, s, demands, v)
    before = excess
    sweeps = 0
    while excess * _SWEEP_STOP * k > total:
        trial = _sweep(Ca, s, demands, v)
        sweeps += 1
        start = _greedy(Ca, s, demands, trial)
        if start[2] >= excess:
            break
        v = trial
        choice, received, excess = start
    base = np.full(C.shape[0], -1, dtype=np.int64)
    base[active] = choice
    stats = SolveStats(sweeps=sweeps, excess_before=before, excess_after=excess)
    return v, base, received, stats


class _PairQueue:
    """Min-queue of packed (increment, supply index) keys for one ordered
    demand-node pair (a, b): a sorted numpy backbone, plus a small overflow
    heap for entries added later. The solver builds the backbone on the
    pair's first read, from every supply node that has been a member of a
    until then, so the many pairs that are never read cost nothing. Never
    rewinds; items re-enter through the overflow heap.
    """

    __slots__ = ("static", "cursor", "extra")

    def __init__(self, static_keys: np.ndarray):
        self.static = static_keys  # sorted int64
        self.cursor = 0
        self.extra: list[int] = []

    def push(self, key: int) -> None:
        heapq.heappush(self.extra, key)

    def peek_min(self) -> int | None:
        s = self.static
        c = self.cursor
        e = self.extra
        if c < len(s):
            sk = int(s[c])
            if e and e[0] < sk:
                return e[0]
            return sk
        return e[0] if e else None

    def pop_min(self) -> int:
        s = self.static
        c = self.cursor
        e = self.extra
        if c < len(s):
            sk = int(s[c])
            if not e or sk <= e[0]:
                self.cursor = c + 1
                return sk
        return heapq.heappop(e)


class _Solver:
    """Successive shortest paths on the demand-node residual graph, from
    the greedy start under dual-swept potentials.

    State invariant: every positive-flow arc (y, x) minimizes
    C[y, x'] - v[x'] over x'. Augmenting only along arcs that are tight
    after repricing preserves it, so the final flow and potentials satisfy
    complementary slackness by construction.
    """

    def __init__(self, inst: TransshipmentInstance, warm_potentials: np.ndarray | None):
        self.inst = inst
        self.C = inst.costs
        n, k = self.C.shape
        self.n = n
        self.k = k
        if warm_potentials is None:
            v0 = np.zeros(k, dtype=np.int64)
        else:
            v0 = np.asarray(warm_potentials, dtype=np.int64).reshape(-1)
            if v0.shape[0] != k:
                raise FlowError("warm potentials must have one entry per demand node")
            if v0.size and int(np.abs(v0).max()) > 2**61:
                raise OverflowRiskError("warm potentials too large for exact arithmetic")
        # Pack heap entries as increment * _pack + supply index so plain int
        # heaps order by (increment, index). Keys must fit int64 during the
        # vectorized build.
        self._pack = 1 << max(20, n.bit_length() + 1)
        max_cost = int(np.abs(self.C).max()) if self.C.size else 0
        if 2 * max_cost > (2**62) // self._pack:
            raise OverflowRiskError(
                "cost magnitudes too large for the relocation index; "
                "lower the cost scaling"
            )

        v0, base_np, received_np, self.sweep_stats = _dual_sweeps(
            self.C, inst.supplies, inst.demands, v0
        )
        self.v = v0.tolist()

        # base[y]: the single center holding block y's whole flow, or -1 when
        # y is inactive or split across centers (then see self.split).
        self.base: list[int] = base_np.tolist()
        self.base_amt: list[int] = np.where(base_np >= 0, inst.supplies, 0).tolist()
        self.split: dict[int, dict[int, int]] = {}
        self.received: list[int] = received_np.tolist()
        self.augmentations = 0
        self.reprices = 0
        self.queue_reads = 0
        self.stale_pops = 0
        self.heap_pushes = 0

        # rel[a][b]: the cheapest relocation increment C[y, b] - C[y, a] over
        # the members y of a (flow at a > 0), and wit[a][b] a member that
        # achieves it; None when a has no member, and on the diagonal. The
        # searches read this k x k table; _enroll and _depart keep it exact.
        # start[a]: the members of a in the greedy start; joined[a]: the
        # supply nodes that became members of a later, departed ones
        # included. See _queue.
        self.rel: list[list[int | None]] = []
        self.wit: list[list[int | None]] = []
        self.start: list[np.ndarray] = []
        self.joined: list[list[int]] = [[] for _ in range(k)]
        cols = np.arange(k)
        for a in range(k):
            ids = np.flatnonzero(base_np == a)
            self.start.append(ids)
            if ids.size == 0:
                self.rel.append([None] * k)
                self.wit.append([None] * k)
                continue
            # |C| <= 2**41 by the pack-key guard, so increments fit int64
            inc = self.C[ids] - self.C[ids, a][:, np.newaxis]
            # argmin takes the lowest supply index on ties, as the keys do
            best = inc.argmin(axis=0)
            rel = inc[best, cols].tolist()
            wit = ids[best].tolist()
            rel[a] = wit[a] = None
            self.rel.append(rel)
            self.wit.append(wit)
        # queues[a][b]: packed (C[y, b] - C[y, a], y) entries over members y
        # of a, built on first use. Entries of departed members are pruned
        # lazily when they reach the front.
        self.queues: list[list[_PairQueue | None]] = [[None] * k for _ in range(k)]

    # -- flow bookkeeping -------------------------------------------------

    def flow_at(self, y: int, x: int) -> int:
        if self.base[y] == x:
            return self.base_amt[y]
        flows = self.split.get(y)
        return flows.get(x, 0) if flows else 0

    def _remove_flow(self, y: int, x: int, q: int) -> bool:
        """Take q units of y from x; True when y is no longer a member of x."""
        if self.base[y] == x:
            rem = self.base_amt[y] - q
            if rem < 0:
                raise FlowError("internal: negative flow")
            if rem == 0:
                self.base[y] = -1
            self.base_amt[y] = rem
            return rem == 0
        flows = self.split[y]
        rem = flows[x] - q
        if rem < 0:
            raise FlowError("internal: negative flow")
        if rem > 0:
            flows[x] = rem
            return False
        del flows[x]
        if len(flows) == 1:
            ((only_x, amt),) = flows.items()
            del self.split[y]
            self.base[y] = only_x
            self.base_amt[y] = amt
        return True

    def _add_flow(self, y: int, x: int, q: int) -> bool:
        """Add q units of y at x; True when y is a new member of x."""
        if self.base[y] == x:
            self.base_amt[y] += q
            return False
        flows = self.split.get(y)
        if flows is None:
            if self.base[y] == -1:
                self.base[y] = x
                self.base_amt[y] = q
                return True
            # y spans several centers now: demote its base flow into the map
            bx = self.base[y]
            flows = {bx: self.base_amt[y]}
            self.split[y] = flows
            self.base[y] = -1
            self.base_amt[y] = 0
        if x in flows:
            flows[x] += q
            return False
        flows[x] = q
        return True

    def _enroll(self, y: int, x: int) -> None:
        """Record new member y of x: lower the row x minima it beats and add
        its entries to the pair queues of x that are built already."""
        self.joined[x].append(y)
        C = self.C
        incs = (C[y] - C[y, x]).tolist()
        pack = self._pack
        rel = self.rel[x]
        wit = self.wit[x]
        queues = self.queues[x]
        for b, inc in enumerate(incs):
            if b == x:
                continue
            r = rel[b]
            if r is None or inc < r:
                rel[b] = inc
                wit[b] = y
            queue = queues[b]
            if queue is not None:
                queue.push(inc * pack + y)
                self.heap_pushes += 1

    def _depart(self, y: int, x: int) -> None:
        """Re-read the row x minima that y, no longer a member of x, achieved."""
        wit = self.wit[x]
        if y not in wit:
            return
        rel = self.rel[x]
        for b in range(self.k):
            if wit[b] == y:
                rel[b], wit[b] = self._front(x, b)

    def _move(self, y: int, a: int, b: int, q: int) -> None:
        if self._remove_flow(y, a, q):
            self._depart(y, a)
        if self._add_flow(y, b, q):
            self._enroll(y, b)
        self.received[a] -= q
        self.received[b] += q

    def _queue(self, a: int, b: int) -> _PairQueue:
        """The (a, b) pair queue, built on first use from every supply node
        that has been a member of a until then."""
        queue = self.queues[a][b]
        if queue is None:
            ids = self.start[a]
            if self.joined[a]:
                ids = np.concatenate([ids, self.joined[a]])
            keys = (self.C[ids, b] - self.C[ids, a]) * self._pack + ids
            keys.sort()
            queue = self.queues[a][b] = _PairQueue(keys)
        return queue

    def _front(self, a: int, b: int) -> tuple[int | None, int | None]:
        """Cheapest relocation increment from a to b and the member that
        achieves it (lowest index on ties), pruning stale entries."""
        queue = self._queue(a, b)
        pack = self._pack
        while True:
            key = queue.peek_min()
            self.queue_reads += 1
            if key is None:
                return None, None
            y = key % pack
            if self.flow_at(y, a) > 0:
                return (key - y) // pack, y
            queue.pop_min()
            self.stale_pops += 1

    # -- shortest paths on the demand-node graph --------------------------

    def _dijkstra_reprice(self) -> None:
        """Reprice potentials so a tight path reaches some deficit node."""
        self.reprices += 1
        k = self.k
        v = self.v
        demands = self.inst.demands
        dist: list[int | None] = [None] * k
        heap: list[tuple[int, int]] = []
        for x in range(k):
            if self.received[x] > demands[x]:
                dist[x] = 0
                heapq.heappush(heap, (0, x))
        done = [False] * k
        rel = self.rel
        target = -1
        target_dist = 0
        while heap:
            d, a = heapq.heappop(heap)
            if done[a]:
                continue
            done[a] = True
            if self.received[a] < demands[a]:
                target = a
                target_dist = d
                break
            va = v[a]
            row = rel[a]
            for b in range(k):
                raw = row[b]
                if raw is None or done[b]:
                    continue
                nd = d + raw + va - v[b]
                if dist[b] is None or nd < dist[b]:
                    dist[b] = nd
                    heapq.heappush(heap, (nd, b))
        if target < 0:
            raise FlowError("internal: no augmenting path; instance not repairable")
        self.v = [
            va + (target_dist if d is None else min(d, target_dist))
            for va, d in zip(v, dist)
        ]

    def _find_tight_path(self) -> list[int] | None:
        """BFS a path of tight arcs from any excess node to any deficit node."""
        k = self.k
        v = self.v
        demands = self.inst.demands
        rel = self.rel
        parent = [-2] * k  # -2 unvisited, -1 source
        queue: list[int] = []
        for x in range(k):
            if self.received[x] > demands[x]:
                parent[x] = -1
                queue.append(x)
        qi = 0
        while qi < len(queue):
            a = queue[qi]
            qi += 1
            if self.received[a] < demands[a]:
                path = [a]
                while parent[path[-1]] != -1:
                    path.append(parent[path[-1]])
                path.reverse()
                return path
            va = v[a]
            row = rel[a]
            for b in range(k):
                raw = row[b]
                if raw is not None and raw + va == v[b] and parent[b] == -2:
                    parent[b] = a
                    queue.append(b)
        return None

    def _hop_capacity(self, a: int, b: int, bound: int) -> int:
        """Total flow on tight (a -> b) relocations, counted up to bound.

        A member can appear several times in the heap after leaving and
        re-arriving; duplicates are counted once and dropped.
        """
        target = self.v[b] - self.v[a]
        queue = self._queue(a, b)
        pack = self._pack
        popped: list[int] = []
        seen: set[int] = set()
        cap = 0
        while cap < bound:
            key = queue.peek_min()
            self.queue_reads += 1
            if key is None:
                break
            y = key % pack
            if self.flow_at(y, a) == 0 or y in seen:  # departed, or a duplicate
                queue.pop_min()
                self.stale_pops += 1
                continue
            if (key - y) // pack != target:
                break
            popped.append(queue.pop_min())
            seen.add(y)
            cap += self.flow_at(y, a)
        for key in popped:
            queue.push(key)
        self.heap_pushes += len(popped)
        return cap

    def _push(self, path: list[int]) -> None:
        demands = self.inst.demands
        theta = min(
            self.received[path[0]] - int(demands[path[0]]),
            int(demands[path[-1]]) - self.received[path[-1]],
        )
        for a, b in zip(path, path[1:]):
            theta = min(theta, self._hop_capacity(a, b, theta))
        if theta <= 0:
            raise FlowError("internal: empty push")
        self.augmentations += 1
        pack = self._pack
        for a, b in zip(path, path[1:]):
            target = self.v[b] - self.v[a]
            queue = self._queue(a, b)
            need = theta
            while need > 0:
                key = queue.peek_min()
                self.queue_reads += 1
                if key is None:
                    raise FlowError("internal: hop capacity vanished")
                y = key % pack
                amt = self.flow_at(y, a)
                if amt == 0:
                    queue.pop_min()
                    self.stale_pops += 1
                    continue
                if (key - y) // pack != target:
                    raise FlowError("internal: tight arc lost its witness")
                q = min(amt, need)
                queue.pop_min()
                self._move(y, a, b, q)
                need -= q
                if q < amt:  # y keeps flow at a
                    queue.push(key)
                    self.heap_pushes += 1

    # -- main loop ---------------------------------------------------------

    def run(self) -> None:
        demands = self.inst.demands
        guard = self.sweep_stats.excess_after + self.k + 8
        while True:
            while True:
                path = self._find_tight_path()
                if path is None:
                    break
                self._push(path)
            if all(r == int(d) for r, d in zip(self.received, demands)):
                return
            guard -= 1
            if guard < 0:
                raise FlowError("internal: augmentation guard exceeded")
            self._dijkstra_reprice()

    def solution(self) -> FlowSolution:
        base = np.array(self.base, dtype=np.int64)
        whole = np.flatnonzero(base >= 0)
        parts = np.array(
            [(y, x, amt) for y, flows in self.split.items() for x, amt in flows.items()],
            dtype=np.int64,
        ).reshape(-1, 3)
        supply_idx = np.concatenate([whole, parts[:, 0]])
        demand_idx = np.concatenate([base[whole], parts[:, 1]])
        amounts = np.concatenate([np.array(self.base_amt, dtype=np.int64)[whole], parts[:, 2]])
        order = np.lexsort((demand_idx, supply_idx))
        supply_idx = supply_idx[order]
        demand_idx = demand_idx[order]
        amounts = amounts[order]

        # Normalize potentials so min(v) = 0; shifting all demand potentials
        # by a constant preserves feasibility and slackness.
        vmin = min(self.v)
        v = np.array([x - vmin for x in self.v], dtype=np.int64)
        z = (self.C - v[np.newaxis, :]).min(axis=1)
        objective = int(np.dot(amounts, self.C[supply_idx, demand_idx]))
        stats = dataclasses.replace(
            self.sweep_stats,
            augmentations=self.augmentations,
            reprices=self.reprices,
            queue_reads=self.queue_reads,
            stale_pops=self.stale_pops,
            heap_pushes=self.heap_pushes,
        )
        return FlowSolution(
            supply_idx=supply_idx,
            demand_idx=demand_idx,
            amounts=amounts,
            supply_potentials=z,
            demand_potentials=v,
            objective=objective,
            stats=stats,
        )
