"""Exact minimum-cost solver for dense bipartite transshipment instances.

Specialized to instances with many supply nodes and few demand nodes
(blocks vs. district centers). A solve runs in four steps:

1. Dual sweeps. The demand potentials maximize a concave k-dimensional
   dual. Gauss-Seidel sweeps of exact coordinate ascent, in numpy, set each
   potential in turn to the weighted quantile at which the supply nodes
   that prefer its node hold its demand. They start from the given
   potentials, and every sweep is kept: exact ascent never lowers the dual,
   even when a sweep raises the excess, the overfill of the greedy start
   (every supply node at its cheapest demand node). They stop once that
   excess is at most 1/32 of an average demand and the last sweep did not
   halve it; at a fixed point; at the tie floor, when a sweep did not lower
   the excess and it is no more than the supply of the rows whose minimum
   is tied and whose greedy node is overfull, supply that the repair moves
   along tight arcs; or after 24 sweeps. The greedy start is searched for
   once, under the starting potentials; after that each sweep tracks it as
   it goes. Every n-sized pass, here and in the read-out and the
   certificate, runs down one demand node's column of the cost matrix,
   which is contiguous when the matrix is column-major. No pass is masked
   and no rows are gathered: the rows of supply nodes with zero supply stay
   in the matrix with weight 0, a quantile sorts only the window of keys
   between the current potential and the boundary that one np.partition
   finds, and the greedy choice is kept by a maximum.
2. Repair. Successive shortest paths with node potentials move the
   remaining overfill from the greedy start, augmenting along shortest
   paths in a compact demand-node graph whose arc (a, b) carries the
   cheapest relocation of one flow unit from demand node a to demand node
   b. A k x k table holds the current minimum of every arc and its
   witness, the least-index supply node that achieves it; it is kept exact
   in O(k) work per supply node that joins or leaves a demand node, from
   lazily pruned heaps of relocation costs per ordered pair. One integer
   bitset per demand node marks its tight arcs, those of zero reduced
   cost. The search for an augmenting path walks only the bitsets and
   reads no table entry. When it fails, a Dijkstra by distance levels
   reprices from the set it reached: it reads the rows of the nodes it
   settles, at the nodes still outside only, and derives the new tight
   arcs from the arcs that achieved each distance. An augmentation moves
   the witnesses of its path's arcs, in rounds until the excess, the
   deficit or a tight arc runs out. It reads no heap itself, so it costs
   O(k) bitset steps plus the table's upkeep per moved supply node,
   instead of a scan of all supply nodes.
3. Read-out. The repair writes its changes into the greedy start's array
   of demand nodes, which keeps the whole-node entries in supply order; the
   entries of the few split nodes are merged in at their supply positions.
   No entry is sorted. The supply potentials are read off the entries'
   tight arcs by one gather; only the rows with no supply take a minimum
   over the k columns.
4. Certification. :func:`certify` re-checks conservation, the objective,
   dual feasibility and complementary slackness. ``solve_balanced`` runs it
   on every solve, and ``cli.cmd_validate`` on a result set read back.

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

# Dual sweeps may stop once the greedy start overfills its demand nodes by
# at most 1/_SWEEP_STOP of an average demand. The constant balances the numpy
# work of one more sweep (n*k entries) against the augmentations it saves
# (a search of the k x k table each); it was set from augmentation counts,
# not timings. They stop there only when the last sweep did not halve the
# excess: a cold solve at 100k x 7 (the second Lloyd step of the statewide
# benchmark run) otherwise stopped just under the threshold after 2 sweeps,
# at 17,970 persons of excess and 751 augmentations; it now takes 5 sweeps
# to 902 persons and 66 augmentations.
_SWEEP_STOP = 32

# At most this many sweeps per solve. It bounds the sweeps of a solve whose
# excess falls slowly but neither reaches the threshold nor stalls at the
# tie floor; also set from counts: on the k = 53 benchmark run, a cap of 12
# left 1,228 augmentations and 653 reprices, 24 leaves 1,076 and 496.
_MAX_SWEEPS = 24


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
    node y to demand node x. Every (supply, demand) arc exists. Costs in any
    memory layout are valid and kept as given; column-major costs, as
    ``CostModel.int_costs`` builds them, are the fast layout, since the
    solver's passes run down one demand node's column at a time.
    ``max_cost`` is the largest cost magnitude, an exact Python int.
    """

    costs: np.ndarray  # (n, k) int64
    supplies: np.ndarray  # (n,) int64, nonnegative
    demands: np.ndarray  # (k,) int64, nonnegative
    max_cost: int = dataclasses.field(init=False, repr=False, compare=False)

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
        max_cost = _magnitude(costs)
        if total > 0 and max_cost > _SAFE_OBJECTIVE // max(total, 1):
            raise OverflowRiskError(
                "cost magnitudes risk 64-bit overflow on a feasible flow; "
                "lower the cost scaling"
            )
        object.__setattr__(self, "costs", costs)
        object.__setattr__(self, "supplies", supplies)
        object.__setattr__(self, "demands", demands)
        object.__setattr__(self, "max_cost", max_cost)
        for arr in (costs, supplies, demands):
            arr.setflags(write=False)

    @property
    def n_supply(self) -> int:
        return int(self.costs.shape[0])

    @property
    def n_demand(self) -> int:
        return int(self.costs.shape[1])


def _magnitude(a: np.ndarray) -> int:
    """Largest |entry| of an int64 array as a Python int, exact at -2**63,
    where np.abs wraps."""
    return max(int(a.max()), -int(a.min())) if a.size else 0


@dataclass(frozen=True)
class SolveStats:
    """Deterministic work counts of one solve.

    ``excess_before`` and ``excess_after`` are the total overfill of the
    greedy start (every block at its cheapest center under the potentials)
    before and after the dual sweeps. The pair queues serve only the upkeep
    of the relocation table: ``queue_reads`` counts reads of a queue's
    minimum when a witness leaves its center, ``stale_pops`` the entries
    dropped there because their block had left the pair's source center,
    and ``heap_pushes`` the entries that joining blocks push onto the
    queues' overflow heaps.
    ``table_reads`` counts the relocation-table entries that the searches
    read: the path search reads none, and a reprice reads the entries of
    each node it settles at the nodes outside.
    ``split_blocks`` counts the blocks whose flow ends split across centers.
    """

    augmentations: int = 0
    reprices: int = 0
    sweeps: int = 0
    excess_before: int = 0
    excess_after: int = 0
    queue_reads: int = 0
    stale_pops: int = 0
    heap_pushes: int = 0
    table_reads: int = 0
    split_blocks: int = 0


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
    u, v = sol.supply_potentials, sol.demand_potentials
    if np.any(u > supply_potentials(inst.costs, v)):
        raise FlowError("certificate: dual infeasible")
    if not np.array_equal(arc_costs - v[sol.demand_idx], u[sol.supply_idx]):
        raise FlowError("certificate: complementary slackness violated")


def supply_potentials(
    costs: np.ndarray, demand_potentials: np.ndarray, rows: np.ndarray | slice = slice(None)
) -> np.ndarray:
    """Each supply row's least reduced cost, min over x of costs[y, x] -
    demand_potentials[x]: the supply potentials that make the dual feasible
    and tight at each row's cheapest arcs; of the given rows only, by
    default all. One column at a time: a min along the short axis of the
    costs is slower."""
    z = costs[rows, 0] - demand_potentials[0]
    for x in range(1, demand_potentials.shape[0]):
        np.minimum(z, costs[rows, x] - demand_potentials[x], out=z)
    return z


def _greedy(C: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Each supply row's cheapest demand node under potentials v, lowest
    index on ties, taken one column at a time."""
    n = C.shape[0]
    best = C[:, 0] - v[0]
    choice = np.zeros(n, dtype=np.int64)
    own = np.empty(n, dtype=np.int64)
    lower = np.empty(n, dtype=bool)
    for x in range(1, v.shape[0]):
        _choose(choice, best, np.subtract(C[:, x], v[x], out=own), x, lower)
    return choice


def _choose(
    choice: np.ndarray, best: np.ndarray, own: np.ndarray, x: int, lower: np.ndarray
) -> None:
    """Step x of the greedy choice: rows whose reduced cost own at x beats
    best choose x, and best takes the minimum. Every earlier choice is below
    x, so the maximum with x where own < best and 0 elsewhere sets it, and a
    tie keeps the lower index. Overwrites own and lower."""
    np.less(own, best, out=lower)
    np.minimum(best, own, out=best)
    np.maximum(choice, np.multiply(lower, x, out=own), out=choice)


def _load(choice: np.ndarray, s: np.ndarray, demands: np.ndarray) -> tuple[np.ndarray, int]:
    """The amount each demand node receives when every supply row sends its
    supply to its choice, and the excess: the total overfill."""
    received = np.zeros(demands.shape[0], dtype=np.int64)
    np.add.at(received, choice, s)
    return received, int(np.maximum(received - demands, 0).sum())


def _first_reaching(
    t: np.ndarray, s: np.ndarray, side: np.ndarray, down: bool, need: int, w_sum: int
) -> int:
    """The key of the marked side of cur at which the weight of that side's
    keys, taken from cur outward, first reaches need.

    side marks the keys below cur (down) or above it; requires
    0 < need <= w_sum == s[side].sum(). Only the j keys nearest cur are
    sorted, enough to carry about twice the needed weight, doubled until
    they do: one np.partition of t finds the j-th of them, and the window
    between it and cur is gathered.
    """
    n = t.shape[0]
    count = int(np.count_nonzero(side))
    j = min(count, 2 * (need * count // w_sum) + 16)
    while True:
        # the side holds ranks 0.. count - 1 of t below cur, n - count..
        # n - 1 above it; edge is its j-th key counted from cur
        rank = count - j if down else n - count + j - 1
        edge = np.partition(t, rank)[rank]
        window = np.flatnonzero(side & (t >= edge if down else t <= edge))
        keys = t[window]
        order = np.argsort(keys)
        if down:
            order = order[::-1]
        cum = np.cumsum(s[window[order]])
        if cum[-1] >= need:
            return int(keys[order[np.searchsorted(cum, need)]])
        j = min(count, 2 * j)


def _quantile(t: np.ndarray, s: np.ndarray, d: int, cur: int) -> int:
    """Smallest t* with s[t <= t*].sum() >= d, for 0 <= d <= s.sum() > 0,
    searched on the side of cur that must move. Rows of zero weight may be
    present: they move no weighted sum, and the minimum taken for d == 0
    skips them. Tied entries in any order give the same value."""
    if d == 0:
        return int(t[s > 0].min())
    side = t < cur
    held = int(s @ side)
    if held >= d:  # too much prefers this node strictly: lower the threshold
        return _first_reaching(t, s, side, True, held - d + 1, held)
    np.greater(t, cur, out=side)
    held = int(s @ side)
    short = d - (int(s.sum()) - held)
    if short <= 0:
        return cur
    return _first_reaching(t, s, side, False, short, held)


def _sweep(
    C: np.ndarray, s: np.ndarray, demands: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One Gauss-Seidel pass of exact coordinate ascent on the dual.

    In turn, v[x] becomes the quantile at which the rows that prefer x, that
    is C[y, x] - v[x] below their best other reduced cost, hold demands[x].
    The result is normalized to max(v) = 0, which keeps every intermediate
    within int64 for potentials spread up to 2**62. Also returns each row's
    cheapest demand node under the result, lowest index on ties: the greedy
    start. Every pass reads one column of C; k >= 2.
    """
    v = v - v.max()
    n, k = C.shape
    # buf[x], x >= 1: cheapest reduced cost over nodes x.. at the old
    # potentials, consumed at step x - 1 and free from then on. buf[0]:
    # cheapest reduced cost over the nodes done so far, at the new potentials.
    buf = np.empty((k, n), dtype=np.int64)
    np.subtract(C[:, k - 1], v[k - 1], out=buf[k - 1])
    for x in range(k - 2, 0, -1):
        np.minimum(buf[x + 1], np.subtract(C[:, x], v[x], out=buf[x]), out=buf[x])
    best = buf[0]
    choice = np.zeros(n, dtype=np.int64)
    lower = np.empty(n, dtype=bool)
    for x in range(k):
        col = C[:, x]
        if x == k - 1:
            t = np.subtract(col, best, out=buf[x])
        else:
            t = buf[x + 1]
            if x:
                np.minimum(t, best, out=t)
            np.subtract(col, t, out=t)
        v[x] = _quantile(t, s, int(demands[x]), int(v[x]))
        if x == 0:
            np.subtract(col, v[0], out=best)
        else:
            _choose(choice, best, np.subtract(col, v[x], out=t), x, lower)
    return v - v.max(), choice


def _tied_supply(
    C: np.ndarray, s: np.ndarray, v: np.ndarray, choice: np.ndarray, over: np.ndarray
) -> int:
    """The supply on rows whose cheapest reduced cost under v is tied and
    whose greedy node choice is overfull (marked in over), which the repair
    moves along tight arcs. One pass down the columns of C."""
    best = C[:, 0] - v[0]
    tied = np.zeros(C.shape[0], dtype=bool)
    own = np.empty_like(best)
    for x in range(1, v.shape[0]):
        np.subtract(C[:, x], v[x], out=own)
        tied &= own >= best
        tied |= own == best
        np.minimum(best, own, out=best)
    return int(s @ (tied & over[choice]))


def _dual_sweeps(
    C: np.ndarray, supplies: np.ndarray, demands: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, SolveStats]:
    """Improve the potentials by dual sweeps, then build the greedy start.

    Every sweep is kept. Sweeps stop at the first of: the excess of the
    greedy start is 0, or at most total / (_SWEEP_STOP * k) and the last
    sweep, if any, did not halve it; a sweep returned the potentials it was
    given; a sweep did not lower the excess, which is at most the supply of
    tied rows at overfull nodes (the tie floor, checked only then); or
    _MAX_SWEEPS sweeps. Rows without supply ride along with weight 0.
    Returns the potentials, each supply node's greedy demand node (-1 when
    it has no supply), the amounts received and the sweep counts.
    """
    k = v.shape[0]
    total = int(supplies.sum())
    choice = _greedy(C, v)
    received, excess = _load(choice, supplies, demands)
    before = last = excess
    sweeps = 0
    while excess and sweeps < _MAX_SWEEPS:
        if excess * _SWEEP_STOP * k <= total and (not sweeps or 2 * excess > last):
            break
        start = v - v.max()
        v, choice = _sweep(C, supplies, demands, v)
        sweeps += 1
        last = excess
        received, excess = _load(choice, supplies, demands)
        if np.array_equal(v, start):
            break
        if excess >= last and excess <= _tied_supply(
            C, supplies, v, choice, received > demands
        ):
            break
    choice[np.flatnonzero(supplies == 0)] = -1
    stats = SolveStats(sweeps=sweeps, excess_before=before, excess_after=excess)
    return v, choice, received, stats


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
    complementary slackness by construction. It also makes every reduced
    cost rel[a][b] + v[a] - v[b] of the relocation table nonnegative.

    Bit b of tight[a] is set iff rel[a][b] + v[a] == v[b]. _enroll and
    _depart keep it where rel changes, and _reprice where v changes; the
    searches read the bitsets, never the table, to find tight arcs.

    The pair queues serve only the table's upkeep, and so do the counts
    queue_reads, stale_pops and heap_pushes: _front reads a queue when a
    witness departs, and _enroll pushes a joining member's entries. _push
    reads no queue; it moves the table's witnesses.

    The flow is one record per supply node y: base[y], the demand node
    that holds all of supplies[y], or -1 when y has no supply or is split;
    and for a split node, split[y], its positive flows by demand node, two
    or more. base is the greedy start's array; _move alone writes the record.
    """

    def __init__(self, inst: TransshipmentInstance, warm_potentials: np.ndarray | None):
        self.C = inst.costs
        n, k = self.C.shape
        self.k = k
        if warm_potentials is None:
            v0 = np.zeros(k, dtype=np.int64)
        else:
            v0 = np.asarray(warm_potentials, dtype=np.int64).reshape(-1)
            if v0.shape[0] != k:
                raise FlowError("warm potentials must have one entry per demand node")
            if _magnitude(v0) > 2**61:
                raise OverflowRiskError("warm potentials too large for exact arithmetic")
        # Pack heap entries as increment * _pack + supply index so plain int
        # heaps order by (increment, index). Keys must fit int64 during the
        # vectorized build.
        self._pack = 1 << max(20, n.bit_length() + 1)
        if 2 * inst.max_cost > (2**62) // self._pack:
            raise OverflowRiskError(
                "cost magnitudes too large for the relocation index; "
                "lower the cost scaling"
            )

        v0, self.base, received_np, self.sweep_stats = _dual_sweeps(
            self.C, inst.supplies, inst.demands, v0
        )
        self.v = v0.tolist()
        self.demands: list[int] = inst.demands.tolist()
        self.supplies = inst.supplies
        self.split: dict[int, dict[int, int]] = {}
        self.received: list[int] = received_np.tolist()
        self.augmentations = 0
        self.reprices = 0
        self.queue_reads = 0
        self.stale_pops = 0
        self.heap_pushes = 0
        self.table_reads = 0

        # rel[a][b]: the cheapest relocation increment C[y, b] - C[y, a] over
        # the members y of a (flow at a > 0), and wit[a][b] the least-index
        # member that achieves it; None when a has no member, and on the
        # diagonal. The searches read this k x k table and _push moves its
        # witnesses; _enroll and _depart keep it exact.
        # start[a]: the members of a in the greedy start; joined[a]: the
        # supply nodes that became members of a later, departed ones
        # included. See _front. tight[a]: the bitset of the tight arcs of
        # row a; reach: the nodes the last failed path search reached.
        self.rel: list[list[int | None]] = []
        self.wit: list[list[int | None]] = []
        self.tight: list[int] = []
        self.reach = 0
        v = self.v
        self.start: list[np.ndarray] = []
        self.joined: list[list[int]] = [[] for _ in range(k)]
        cols = np.arange(k)
        for a in range(k):
            ids = np.flatnonzero(self.base == a)
            self.start.append(ids)
            if ids.size == 0:
                self.rel.append([None] * k)
                self.wit.append([None] * k)
                self.tight.append(0)
                continue
            # inc[b]: the members' increments C[y, b] - C[y, a], gathered one
            # column at a time; |C| <= 2**41 by the pack-key guard, so they
            # fit int64
            inc = np.take(self.C.T, ids, axis=1)
            inc -= inc[a]
            # argmin takes the lowest supply index on ties, as the keys do
            best = inc.argmin(axis=1)
            rel = inc[cols, best].tolist()
            wit = ids[best].tolist()
            rel[a] = wit[a] = None
            self.rel.append(rel)
            self.wit.append(wit)
            va = v[a]
            self.tight.append(
                sum(1 << b for b, r in enumerate(rel) if r is not None and r + va == v[b])
            )
        # queues[a][b]: packed (C[y, b] - C[y, a], y) entries over members y
        # of a, built on first use. Entries of departed members are pruned
        # lazily when they reach the front.
        self.queues: list[list[_PairQueue | None]] = [[None] * k for _ in range(k)]

    # -- flow bookkeeping -------------------------------------------------

    def flow_at(self, y: int, x: int) -> int:
        if self.base.item(y) == x:
            return self.supplies.item(y)
        flows = self.split.get(y)
        return flows.get(x, 0) if flows else 0

    def _enroll(self, y: int, x: int) -> None:
        """Record new member y of x: lower the row x minima it beats, mark
        those it makes tight, take over as witness where it ties a minimum
        with a lower index, and add its entries to the pair queues of x that
        are built already."""
        self.joined[x].append(y)
        C = self.C
        incs = (C[y] - C[y, x]).tolist()
        pack = self._pack
        rel = self.rel[x]
        wit = self.wit[x]
        queues = self.queues[x]
        v = self.v
        vx = v[x]
        # a lowered minimum was not tight before, as reduced costs are >= 0
        tight = 0
        for b, inc in enumerate(incs):
            if b == x:
                continue
            r = rel[b]
            if r is None or inc < r or (inc == r and y < wit[b]):
                rel[b] = inc
                wit[b] = y
                if inc + vx == v[b]:
                    tight |= 1 << b
            queue = queues[b]
            if queue is not None:
                queue.push(inc * pack + y)
                self.heap_pushes += 1
        self.tight[x] |= tight

    def _depart(self, y: int, x: int) -> None:
        """Re-read the row x minima that y, no longer a member of x, achieved,
        and unmark those that rise above tight."""
        wit = self.wit[x]
        if y not in wit:
            return
        rel = self.rel[x]
        v = self.v
        vx = v[x]
        tight = self.tight[x]
        for b in range(self.k):
            if wit[b] == y:
                r, wit[b] = self._front(x, b)
                rel[b] = r
                if r is None or r + vx != v[b]:
                    tight &= ~(1 << b)
        self.tight[x] = tight

    def _move(self, y: int, a: int, b: int, q: int) -> None:
        """Move q units of y's flow from a to b. y leaves a when no flow is
        left there, and joins b when it had none there."""
        flows = self.split.pop(y, None) or {self.base.item(y): self.supplies.item(y)}
        rem = flows.pop(a, 0) - q
        if rem < 0:
            raise FlowError("internal: negative flow")
        if rem:
            flows[a] = rem
        joins = b not in flows
        flows[b] = flows.get(b, 0) + q
        self.base[y] = b if len(flows) == 1 else -1
        if len(flows) > 1:
            self.split[y] = flows
        if not rem:
            self._depart(y, a)
        if joins:
            self._enroll(y, b)
        self.received[a] -= q
        self.received[b] += q

    def _front(self, a: int, b: int) -> tuple[int | None, int | None]:
        """Cheapest relocation increment from a to b and the member that
        achieves it (lowest index on ties), pruning stale entries. The (a, b)
        pair queue is built on first use from every supply node that has
        been a member of a until then."""
        queue = self.queues[a][b]
        pack = self._pack
        if queue is None:
            ids = self.start[a]
            if self.joined[a]:
                ids = np.concatenate([ids, self.joined[a]])
            keys = (self.C[ids, b] - self.C[ids, a]) * pack + ids
            keys.sort()
            queue = self.queues[a][b] = _PairQueue(keys)
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

    def _find_tight_path(self) -> list[int] | None:
        """BFS a path of tight arcs from any excess node to any deficit node.

        Nodes are visited in FIFO order, each one's successors in ascending
        index. When no path exists, self.reach is left as the bitset of the
        nodes reached.
        """
        received = self.received
        demands = self.demands
        tight = self.tight
        parent = [-1] * self.k  # -1 at the sources
        queue = [x for x in range(self.k) if received[x] > demands[x]]
        seen = sum(1 << x for x in queue)
        for a in queue:  # the loop also visits the nodes appended below
            if received[a] < demands[a]:
                path = [a]
                while parent[path[-1]] != -1:
                    path.append(parent[path[-1]])
                path.reverse()
                return path
            new = tight[a] & ~seen
            seen |= new
            while new:
                low = new & -new
                b = low.bit_length() - 1
                parent[b] = a
                queue.append(b)
                new ^= low
        self.reach = seen
        return None

    def _reprice(self) -> None:
        """Raise the potentials so a tight path reaches some deficit node.

        A Dijkstra by distance levels on the reduced costs, from the reach
        of the failed path search at distance 0. A level is the nodes of the
        least key outside, closed over the tight arcs among the nodes
        outside; only the arcs from a newly settled level to the nodes
        outside are relaxed. The first level D that holds a deficit node
        ends it. Each node rises by min(distance, D), the same shift for any
        order of ties, since shortest distances are unique.

        The tight bitsets follow without a re-scan. An arc from a settled
        node a is tight afterwards iff it stays within a's level and was
        tight, or it achieved the key of the node it enters, at that node's
        level or at D. An arc from any other node into a settled node, which
        rose less, is not tight; the others keep their reduced costs.
        """
        self.reprices += 1
        k = self.k
        v = self.v
        rel = self.rel
        tight = self.tight
        received = self.received
        demands = self.demands
        key: list[int | None] = [None] * k
        src = [0] * k  # bitset of the settled nodes whose arcs achieve key
        settled = 0
        level = self.reach
        d = 0
        while True:
            settled |= level
            out = [b for b in range(k) if not settled >> b & 1]
            m = level
            while m:
                low = m & -m
                a = low.bit_length() - 1
                m ^= low
                tight[a] &= level
                row = rel[a]
                base = v[a] = v[a] + d  # settled: a rises by its distance
                self.table_reads += len(out)
                for b in out:
                    r = row[b]
                    if r is None:
                        continue
                    nd = base + r - v[b]
                    kb = key[b]
                    if kb is None or nd < kb:
                        key[b] = nd
                        src[b] = low
                    elif nd == kb:
                        src[b] |= low
            keys = [key[b] for b in out if key[b] is not None]
            if not keys:
                raise FlowError("internal: no augmenting path; instance not repairable")
            d = min(keys)
            level = 0
            queue = []
            for b in out:
                if key[b] == d:
                    bit = 1 << b
                    level |= bit
                    queue.append(b)
                    m = src[b]
                    while m:
                        low = m & -m
                        tight[low.bit_length() - 1] |= bit
                        m ^= low
            found = False
            for a in queue:  # the loop also visits the nodes appended below
                if received[a] < demands[a]:
                    found = True
                    break
                new = tight[a] & ~(settled | level)
                level |= new
                while new:
                    low = new & -new
                    queue.append(low.bit_length() - 1)
                    new ^= low
            if found:
                break
        for x in range(k):
            if not settled >> x & 1:
                v[x] += d
                tight[x] &= ~settled

    def _push(self, path: list[int]) -> None:
        """Augment along a tight path from an excess node to a deficit node.

        Each round moves the witness of every hop (a, b), wit[a][b], by
        theta: the least of the excess at path[0], the deficit at path[-1]
        and each witness's flow at its hop. Rounds repeat while all three
        remain and every hop stays tight. A block moved into a node of the
        path is never tight towards the next one, or the search would have
        reached that node first, so each hop moves the members it held
        tight when the path was found, in index order.
        """
        received = self.received
        demands = self.demands
        first, last = path[0], path[-1]
        hops = list(zip(path, path[1:]))
        self.augmentations += 1
        while True:
            ys = [self.wit[a][b] for a, b in hops]
            theta = min(
                received[first] - demands[first],
                demands[last] - received[last],
                *(self.flow_at(y, a) for y, (a, _) in zip(ys, hops)),
            )
            if theta <= 0:
                raise FlowError("internal: empty push")
            for y, (a, b) in zip(ys, hops):
                self._move(y, a, b, theta)
            if (
                received[first] == demands[first]
                or received[last] == demands[last]
                or not all(self.tight[a] >> b & 1 for a, b in hops)
            ):
                return

    # -- main loop ---------------------------------------------------------

    def run(self) -> None:
        guard = self.sweep_stats.excess_after + self.k + 8
        while True:
            while True:
                path = self._find_tight_path()
                if path is None:
                    break
                self._push(path)
            if self.received == self.demands:
                # The flow is final. Free the members and pair queues, up to
                # an int64 per supply node and pair, before the read-out.
                self.start.clear()
                self.queues.clear()
                return
            guard -= 1
            if guard < 0:
                raise FlowError("internal: augmentation guard exceeded")
            self._reprice()

    def solution(self) -> FlowSolution:
        """The flow as entries in (supply, demand) order, with potentials.

        The whole-block entries of base, each carrying its block's supply,
        are in supply order, and the entries of the few split blocks are
        merged in at their supply positions.
        """
        supply_idx = whole = np.flatnonzero(self.base >= 0)
        demand_idx = self.base[whole]
        amounts = self.supplies[whole]
        if self.split:
            parts = np.array(
                [
                    (y, x, self.split[y][x])
                    for y in sorted(self.split)
                    for x in sorted(self.split[y])
                ],
                dtype=np.int64,
            )
            at = np.searchsorted(whole, parts[:, 0])
            supply_idx = np.insert(supply_idx, at, parts[:, 0])
            demand_idx = np.insert(demand_idx, at, parts[:, 1])
            amounts = np.insert(amounts, at, parts[:, 2])

        # Normalize potentials so min(v) = 0; shifting all demand potentials
        # by a constant preserves feasibility and slackness.
        vmin = min(self.v)
        v = np.array([x - vmin for x in self.v], dtype=np.int64)
        reduced = self.C[supply_idx, demand_idx]
        objective = int(np.dot(amounts, reduced))
        # Every flow arc is tight, so a row with supply has its potential on
        # its own entries, one gather instead of a pass over the k columns;
        # certify's one full pass checks that no arc of the row is cheaper.
        # A row without supply has no entry and takes its least reduced cost.
        u = np.empty(self.C.shape[0], dtype=np.int64)
        u[supply_idx] = np.subtract(reduced, v[demand_idx], out=reduced)
        idle = np.flatnonzero(self.supplies == 0)
        if idle.size:
            u[idle] = supply_potentials(self.C, v, idle)
        stats = dataclasses.replace(
            self.sweep_stats,
            augmentations=self.augmentations,
            reprices=self.reprices,
            queue_reads=self.queue_reads,
            stale_pops=self.stale_pops,
            heap_pushes=self.heap_pushes,
            table_reads=self.table_reads,
            split_blocks=len(self.split),
        )
        return FlowSolution(
            supply_idx=supply_idx,
            demand_idx=demand_idx,
            amounts=amounts,
            supply_potentials=u,
            demand_potentials=v,
            objective=objective,
            stats=stats,
        )
