import numpy as np
import pytest

from districtor import flow
from tests.oracle import brute_force_transport


def random_instance(rng, max_side=6, max_supply=3, max_cost=100, allow_negative=False):
    n = int(rng.integers(1, max_side + 1))
    k = int(rng.integers(1, max_side + 1))
    supplies = rng.integers(0, max_supply + 1, size=n)
    demands = np.zeros(k, dtype=np.int64)
    for _ in range(int(supplies.sum())):
        demands[int(rng.integers(0, k))] += 1
    low = -max_cost if allow_negative else 0
    costs = rng.integers(low, max_cost + 1, size=(n, k))
    return flow.TransshipmentInstance(costs=costs, supplies=supplies, demands=demands)


class TestValidation:
    def test_rejects_supply_demand_mismatch(self):
        with pytest.raises(flow.InfeasibleError):
            flow.TransshipmentInstance(costs=[[1]], supplies=[2], demands=[1])

    def test_rejects_negative_supply(self):
        with pytest.raises(flow.FlowError):
            flow.TransshipmentInstance(costs=[[1]], supplies=[-1], demands=[-1])

    def test_rejects_overflow_risk(self):
        with pytest.raises(flow.OverflowRiskError):
            flow.TransshipmentInstance(
                costs=[[2**61]], supplies=[100], demands=[100]
            )

    def test_rejects_costs_too_large_for_heap_keys(self):
        inst = flow.TransshipmentInstance(
            costs=[[2**45, 0], [0, 2**45]], supplies=[1, 1], demands=[1, 1]
        )
        with pytest.raises(flow.OverflowRiskError):
            flow.solve_mcf(inst)

    def test_rejects_huge_warm_potentials(self):
        inst = flow.TransshipmentInstance(costs=[[7]], supplies=[1], demands=[1])
        with pytest.raises(flow.OverflowRiskError):
            flow.solve_mcf(inst, warm_potentials=np.array([2**62]))

    def test_rejects_bad_shapes(self):
        with pytest.raises(flow.FlowError):
            flow.TransshipmentInstance(costs=[[1, 2]], supplies=[1, 1], demands=[1, 1])


class TestForcedSolutions:
    def test_single_arc(self):
        inst = flow.TransshipmentInstance(costs=[[7]], supplies=[1], demands=[1])
        sol = flow.solve_mcf(inst)
        flow.certify(inst, sol)
        assert sol.objective == 7
        assert sol.amounts.tolist() == [1]

    def test_zero_cost_matching(self):
        inst = flow.TransshipmentInstance(
            costs=[[0, 5], [5, 0]], supplies=[1, 1], demands=[1, 1]
        )
        sol = flow.solve_mcf(inst)
        flow.certify(inst, sol)
        assert sol.objective == 0
        assert sol.supply_idx.tolist() == [0, 1]
        assert sol.demand_idx.tolist() == [0, 1]

    def test_zero_supply_node_carries_no_flow(self):
        inst = flow.TransshipmentInstance(
            costs=[[1, 1], [3, 4]], supplies=[0, 2], demands=[1, 1]
        )
        sol = flow.solve_mcf(inst)
        flow.certify(inst, sol)
        assert 0 not in sol.supply_idx
        assert sol.objective == 7


class TestAgainstBruteForce:
    def test_thousand_random_instances(self):
        rng = np.random.default_rng(2024)
        for t in range(1000):
            inst = random_instance(rng)
            sol = flow.solve_mcf(inst)
            flow.certify(inst, sol)
            expected = brute_force_transport(
                inst.costs.tolist(), inst.supplies.tolist(), inst.demands.tolist()
            )
            assert sol.objective == expected, f"instance {t}"

    def test_negative_costs(self):
        rng = np.random.default_rng(7)
        for t in range(200):
            inst = random_instance(rng, max_side=4, allow_negative=True)
            sol = flow.solve_mcf(inst)
            flow.certify(inst, sol)
            expected = brute_force_transport(
                inst.costs.tolist(), inst.supplies.tolist(), inst.demands.tolist()
            )
            assert sol.objective == expected, f"instance {t}"


class TestDualCertificate:
    def test_strong_duality_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            inst = random_instance(rng)
            sol = flow.solve_mcf(inst)
            primal = sol.objective
            dual = int(np.dot(inst.demands, sol.demand_potentials)) + int(
                np.dot(inst.supplies, sol.supply_potentials)
            )
            assert primal == dual

    def test_certify_rejects_tampered_objective(self):
        inst = flow.TransshipmentInstance(costs=[[7]], supplies=[1], demands=[1])
        sol = flow.solve_mcf(inst)
        bad = flow.FlowSolution(
            supply_idx=sol.supply_idx,
            demand_idx=sol.demand_idx,
            amounts=sol.amounts,
            supply_potentials=sol.supply_potentials,
            demand_potentials=sol.demand_potentials,
            objective=sol.objective + 1,
        )
        with pytest.raises(flow.FlowError):
            flow.certify(inst, bad)

    def test_certify_rejects_tampered_potentials(self):
        inst = flow.TransshipmentInstance(
            costs=[[0, 5], [5, 0]], supplies=[1, 1], demands=[1, 1]
        )
        sol = flow.solve_mcf(inst)
        bad = flow.FlowSolution(
            supply_idx=sol.supply_idx,
            demand_idx=sol.demand_idx,
            amounts=sol.amounts,
            supply_potentials=sol.supply_potentials + 3,
            demand_potentials=sol.demand_potentials,
            objective=sol.objective,
        )
        with pytest.raises(flow.FlowError):
            flow.certify(inst, bad)


class TestWarmStart:
    def test_any_warm_potentials_give_same_objective(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            inst = random_instance(rng, max_side=5)
            cold = flow.solve_mcf(inst)
            warm_v = rng.integers(-50, 50, size=inst.n_demand)
            warm = flow.solve_mcf(inst, warm_potentials=warm_v)
            flow.certify(inst, warm)
            assert warm.objective == cold.objective

    def test_rejects_wrong_length(self):
        inst = flow.TransshipmentInstance(costs=[[7]], supplies=[1], demands=[1])
        with pytest.raises(flow.FlowError):
            flow.solve_mcf(inst, warm_potentials=np.array([0, 0]))


class TestDeterminism:
    def test_identical_runs(self):
        rng = np.random.default_rng(3)
        inst = random_instance(rng, max_side=6)
        a = flow.solve_mcf(inst)
        b = flow.solve_mcf(inst)
        assert np.array_equal(a.supply_idx, b.supply_idx)
        assert np.array_equal(a.demand_idx, b.demand_idx)
        assert np.array_equal(a.amounts, b.amounts)
        assert np.array_equal(a.demand_potentials, b.demand_potentials)


class TestDualSweeps:
    def test_quantile_matches_full_sort(self):
        # the partial search on one side of the current threshold finds the
        # value a full sort finds, with ties, huge rows and zero demand
        rng = np.random.default_rng(3)
        for t in range(300):
            n = int(rng.integers(1, 3000))
            keys = rng.integers(-50, 50, size=n) * int(rng.integers(1, 10**9))
            w = rng.integers(1, int(rng.choice([2, 5, 500])), size=n)
            if rng.random() < 0.3:
                w[rng.integers(0, n)] += 3 * int(w.sum())
            d = int(rng.integers(0, w.sum() + 1))
            cur = int(rng.choice(keys)) + int(rng.integers(-1, 2))
            order = np.argsort(keys, kind="stable")
            cum = np.cumsum(w[order])
            want = int(keys.min()) if d == 0 else int(keys[order][np.searchsorted(cum, d)])
            assert flow._quantile(keys, w, d, cur) == want, f"case {t}"

    def test_sweeps_never_lower_the_dual(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            inst = random_instance(rng, max_side=40, max_supply=30, max_cost=10**6)
            if inst.n_demand < 2:  # one demand node has nothing to sweep
                continue
            C, s, d = inst.costs, inst.supplies, inst.demands
            v = rng.integers(-(10**6), 10**6, size=inst.n_demand)
            dual = int(d @ v) + int(s @ (C - v).min(axis=1))
            for _ in range(4):
                v = flow._sweep(C, s, d, v)
                swept = int(d @ v) + int(s @ (C - v).min(axis=1))
                assert swept >= dual
                dual = swept
