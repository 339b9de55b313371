"""solve_mcf against two outside solvers on instances of hundreds of blocks.

Costs come from the production cost model on generated block geometry,
with the degenerate cases built on purpose: exact cost ties on an integer
grid, zero populations, a block larger than a district, as many districts
as populated blocks, centers far outside the blocks, and warm potentials
at the edge of the accepted range. Every solve must be certified and match
network simplex's integer optimum and HiGHS's objective; HiGHS's duals must
certify the same flow, which pins the demand duals up to a constant on
every connected part of the flow.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from districtor import flow
from districtor.assignment import ScaledCostPolicy, cost_model_for
from districtor.model import balanced_capacities
from tests.conftest import distribute_population, grid_transshipment, make_instance
from tests.oracle import dijkstra_reprice, linprog_transport, network_simplex_transport

pytest.importorskip("scipy")
pytest.importorskip("networkx")

KS = (2, 7, 23, 53)
KINDS = ("plain", "grid", "zeros", "heavy", "tight")
WARM = ("cold", "warm", "random", "edge")


def _transshipment(seed: int, k: int, kind: str, far: float = 0.0):
    """Costs between n blocks and k centers, with the block populations as
    supplies and balanced capacities as demands."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(200, 501))
    if kind == "grid":  # many coincident blocks and exactly tied costs
        locs = rng.integers(0, 12, size=(n, 2)).astype(np.float64)
    else:
        locs = rng.normal(0.0, 30.0, size=(n, 2)) + rng.uniform(0.0, 100.0, size=(4, 2))[
            rng.integers(0, 4, size=n)
        ]
    m = 40 * n
    pops = distribute_population(rng, n, m)
    if kind == "zeros":
        pops[rng.random(n) < 0.4] = 0
    elif kind == "heavy":  # one block holds more than a district
        pops[int(rng.integers(0, n))] += 2 * m // k
    elif kind == "tight":  # as many districts as populated blocks
        pops[:] = 0
        pops[rng.choice(n, size=k, replace=False)] = rng.integers(1, 60, size=k)
    inst = make_instance(locs, pops, k)
    if kind == "grid":
        positions = rng.integers(0, 12, size=(k, 2)).astype(np.float64)
    else:
        positions = locs[rng.choice(n, size=k, replace=False)] + rng.normal(0.0, 2.0, (k, 2))
    if far:  # push every center the given number of diameters away
        angle = rng.uniform(0.0, 2.0 * np.pi, size=k)
        offset = far * inst.diameter * np.stack([np.cos(angle), np.sin(angle)], axis=1)
        positions = positions + offset
    model = cost_model_for(inst, ScaledCostPolicy())
    costs = model.int_costs(inst.locations(), positions)
    return flow.TransshipmentInstance(
        costs=costs, supplies=inst.populations(), demands=balanced_capacities(inst.m, k)
    )


def _warm_potentials(inst: flow.TransshipmentInstance, how: str, seed: int):
    rng = np.random.default_rng(seed)
    k = inst.n_demand
    if how == "cold":
        return None
    if how == "warm":  # the optimum of nearby costs, as in a Lloyd iteration
        nudged = inst.costs + rng.integers(0, 2_000_000, size=inst.costs.shape)
        near = flow.TransshipmentInstance(nudged, inst.supplies, inst.demands)
        return flow.solve_mcf(near).demand_potentials
    if how == "random":
        return rng.integers(-(10**12), 10**12, size=k)
    return rng.choice(np.array([-(2**61), 2**61], dtype=np.int64), size=k)


def _check_against_oracles(inst: flow.TransshipmentInstance, warm) -> flow.FlowSolution:
    sol = flow.solve_mcf(inst, warm_potentials=warm)
    flow.certify(inst, sol)
    costs, supplies, demands = inst.costs, inst.supplies, inst.demands
    assert sol.objective == network_simplex_transport(costs, supplies, demands)
    lp_objective, lp_v = linprog_transport(costs, supplies, demands)
    assert abs(lp_objective - sol.objective) <= 1e-9 * max(1.0, abs(sol.objective))
    # Any optimal dual is complementary to any optimal flow: HiGHS's duals,
    # which are integral at a vertex, certify this flow too.
    v = np.rint(lp_v).astype(np.int64)
    assert np.allclose(lp_v, v, rtol=0.0, atol=1e-3)
    u = (costs - v[np.newaxis, :]).min(axis=1)
    flow.certify(inst, dataclasses.replace(sol, supply_potentials=u, demand_potentials=v))
    return sol


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("kind", KINDS)
def test_matches_outside_solvers(k, kind):
    seed = 1000 * k + KINDS.index(kind)
    inst = _transshipment(seed, k, kind)
    # each pair of k and kind meets one start; every k meets every start
    how = WARM[(KS.index(k) + KINDS.index(kind)) % len(WARM)]
    _check_against_oracles(inst, _warm_potentials(inst, how, seed))


@pytest.mark.parametrize("how", WARM)
def test_every_start_gives_the_grid_optimum(how):
    inst = _transshipment(77, 23, "grid")
    sol = _check_against_oracles(inst, _warm_potentials(inst, how, 77))
    assert sol.stats.augmentations <= sol.stats.excess_after


def test_centers_far_outside_the_blocks():
    inst = _transshipment(5, 7, "plain", far=10.0)
    _check_against_oracles(inst, None)
    _check_against_oracles(inst, _warm_potentials(inst, "edge", 5))


def test_centers_too_far_for_exact_costs_end_cleanly():
    inst = _transshipment(5, 7, "plain", far=100.0)
    with pytest.raises(flow.OverflowRiskError):
        flow.solve_mcf(inst)


class _CheckedSolver(flow._Solver):
    """The production solver, checking its relocation table and tight-arc
    bitsets after every push, and its potentials and bitsets after every
    reprice."""

    def __init__(self, inst, warm):
        super().__init__(inst, warm)
        self.checks = 0
        self.reprice_checks = 0
        self.check_table()

    def _push(self, path):
        super()._push(path)
        self.check_table()

    def _reprice(self):
        want = dijkstra_reprice(self.rel, self.v, self.received, self.demands)
        super()._reprice()
        assert self.v == want
        self.check_tight()
        self.reprice_checks += 1

    def check_tight(self):
        """Bit b of tight[a] is set iff rel[a][b] + v[a] == v[b], by brute
        force over the whole table."""
        k, rel, v = self.k, self.rel, self.v
        for a in range(k):
            assert 0 <= self.tight[a] < 1 << k
            for b in range(k):
                tight = rel[a][b] is not None and rel[a][b] + v[a] == v[b]
                assert (self.tight[a] >> b & 1) == tight

    def check_table(self):
        """The per-block record holds each block's supply: base[y] >= 0
        exactly for the blocks held whole by one center, and every split
        entry holds two or more positive amounts. rel[a][b] is the least
        C[y, b] - C[y, a] over the members y of a, by brute force, and
        wit[a][b] is the least-index member that achieves it: the block
        that _push moves first on a tight arc."""
        self.checks += 1
        C = self.C
        n, k = C.shape
        flows = np.array([[self.flow_at(y, x) for x in range(k)] for y in range(n)])
        assert flows.sum(axis=1).tolist() == self.supplies.tolist()
        assert [x >= 0 for x in self.base] == (np.count_nonzero(flows, axis=1) == 1).tolist()
        for y, amounts in self.split.items():
            assert self.base[y] == -1
            assert len(amounts) >= 2 and min(amounts.values()) > 0
        for a in range(k):
            members = np.flatnonzero(flows[:, a] > 0)
            assert self.rel[a][a] is None and self.wit[a][a] is None
            for b in range(k):
                if b == a:
                    continue
                if members.size == 0:
                    assert self.rel[a][b] is None and self.wit[a][b] is None
                    continue
                inc = C[members, b] - C[members, a]
                assert self.rel[a][b] == int(inc.min())
                # members ascend, and argmin takes the first minimum
                assert self.wit[a][b] == int(members[inc.argmin()])
        self.check_tight()


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.sampled_from(KS),
    n=st.integers(1, 120),
    side=st.integers(1, 12),
    zeros=st.floats(0.0, 0.7),
    heavy=st.integers(0, 3),
    warm=st.booleans(),
)
def test_relocation_table_stays_exact(seed, k, n, side, zeros, heavy, warm):
    """Blocks and centers on a small integer grid give many tied costs;
    zero supplies leave blocks out of the flow, and heavy blocks above a
    district's demand must split. Every reprice must give the reference
    Dijkstra's potentials."""
    inst, potentials = grid_transshipment(seed, n, side, k, zeros, heavy, warm)
    solver = _CheckedSolver(inst, potentials)
    solver.run()
    assert solver.checks == solver.augmentations + 1
    assert solver.reprice_checks == solver.reprices
    sol = solver.solution()
    flow.certify(inst, sol)
    assert sol.objective == network_simplex_transport(inst.costs, inst.supplies, inst.demands)
    # the read-out merges the split blocks into the whole-block entries; a
    # lexsort of every positive flow gives the same entries
    y, x = np.nonzero([[solver.flow_at(y, x) for x in range(k)] for y in range(n)])
    order = np.lexsort((x, y))
    expect = (y[order], x[order], np.array([solver.flow_at(*a) for a in zip(y, x)])[order])
    for got, want in zip((sol.supply_idx, sol.demand_idx, sol.amounts), expect):
        assert got.dtype == np.int64 and got.tolist() == want.tolist()
    assert sol.stats.split_blocks == int(np.count_nonzero(np.bincount(y) > 1))
