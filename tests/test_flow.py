import dataclasses

import numpy as np
import pytest

from districtor import flow
from districtor.lloyd import seed_centers
from tests.conftest import gaussian_instance, transshipment
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

    def test_supply_potentials_are_the_row_minima(self):
        # the read-out takes them off the flow entries, and only for rows
        # without supply from their costs; both must equal the full pass
        rng = np.random.default_rng(11)
        solved = [(inst, flow.solve_mcf(inst)) for inst in map(random_instance, [rng] * 200)]
        solved += [solved_fortran_instance(seed)[1:] for seed in range(3)]
        assert any(0 < np.count_nonzero(i.supplies == 0) < i.n_supply for i, _ in solved)
        for inst, sol in solved:
            full = flow.supply_potentials(inst.costs, sol.demand_potentials)
            assert np.array_equal(sol.supply_potentials, full)

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


def solved_fortran_instance(seed, n=200, k=7):
    """A seeded F-ordered instance with some zero supplies, and its solution."""
    rng = np.random.default_rng(seed)
    costs = np.asfortranarray(rng.integers(0, 10**6, size=(n, k)))
    supplies = rng.integers(0, 20, size=n)
    supplies[0] += 1
    total = int(supplies.sum())
    demands = np.full(k, total // k)
    demands[: total % k] += 1
    inst = flow.TransshipmentInstance(costs=costs, supplies=supplies, demands=demands)
    assert inst.costs.flags.f_contiguous
    sol = flow.solve_mcf(inst)
    flow.certify(inst, sol)
    return rng, inst, sol


class TestCertifyColumns:
    """certify checks dual feasibility one column at a time; each single
    change below must still be caught."""

    @pytest.mark.parametrize("seed", range(4))
    def test_one_supply_potential_raised(self, seed):
        rng, inst, sol = solved_fortran_instance(seed)
        for y in (0, int(rng.integers(1, inst.n_supply)), inst.n_supply - 1):
            u = sol.supply_potentials.copy()
            u[y] += 1
            with pytest.raises(flow.FlowError, match="dual infeasible"):
                flow.certify(inst, dataclasses.replace(sol, supply_potentials=u))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "shift, message", [(1, "dual infeasible"), (-1, "complementary slackness")]
    )
    def test_one_demand_potential_changed(self, seed, shift, message):
        rng, inst, sol = solved_fortran_instance(seed)
        for x in (0, int(rng.integers(1, inst.n_demand)), inst.n_demand - 1):
            v = sol.demand_potentials.copy()
            v[x] += shift
            with pytest.raises(flow.FlowError, match=message):
                flow.certify(inst, dataclasses.replace(sol, demand_potentials=v))

    @pytest.mark.parametrize("seed", range(4))
    def test_flow_moved_onto_a_loose_arc(self, seed):
        # one unit of y1 moves from x1 to x2 and one of y2 back from x2 to
        # x1: conservation holds, the objective is recomputed, and (y1, x2)
        # has positive reduced cost, so only slackness can fail
        _, inst, sol = solved_fortran_instance(seed)
        C = inst.costs
        u, v = sol.supply_potentials, sol.demand_potentials
        F = np.zeros(C.shape, dtype=np.int64)
        F[sol.supply_idx, sol.demand_idx] = sol.amounts
        y1, x1, x2, y2 = next(
            (y1, x1, x2, y2)
            for y1, x1 in zip(sol.supply_idx.tolist(), sol.demand_idx.tolist())
            for x2 in range(inst.n_demand)
            if C[y1, x2] - v[x2] > u[y1]
            for y2 in np.flatnonzero(F[:, x2]).tolist()
            if y2 != y1
        )
        F[y1, x1] -= 1
        F[y1, x2] += 1
        F[y2, x2] -= 1
        F[y2, x1] += 1
        ys, xs = np.nonzero(F)
        bad = dataclasses.replace(
            sol,
            supply_idx=ys,
            demand_idx=xs,
            amounts=F[ys, xs],
            objective=int((F * C).sum()),
        )
        with pytest.raises(flow.FlowError, match="complementary slackness"):
            flow.certify(inst, bad)


class TestLayouts:
    @pytest.mark.parametrize("seed", range(6))
    def test_row_and_column_major_costs_solve_alike(self, seed):
        rng = np.random.default_rng(seed)
        for k in (2, 7, 53):
            n = int(rng.integers(50, 400))
            costs = rng.integers(0, 10**7, size=(n, k))
            supplies = rng.integers(0, 40, size=n)
            supplies[0] += 1
            total = int(supplies.sum())
            demands = np.full(k, total // k)
            demands[: total % k] += 1
            warm = None if seed % 2 else rng.integers(-(10**6), 10**6, size=k)
            sols = []
            for layout in (np.ascontiguousarray(costs), np.asfortranarray(costs)):
                inst = flow.TransshipmentInstance(layout, supplies, demands)
                sols.append(flow.solve_mcf(inst, warm_potentials=warm))
                flow.certify(inst, sols[-1])
            row, col = sols
            for field in (
                "supply_idx", "demand_idx", "amounts", "supply_potentials", "demand_potentials"
            ):
                assert np.array_equal(getattr(row, field), getattr(col, field)), field
            assert row.objective == col.objective
            assert row.stats == col.stats


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
    @staticmethod
    def quantile_cases(rng):
        """(keys, weights, demand, cur): random cases with ties, huge rows,
        zero demand and rows of zero weight, then fixed ones."""
        for _ in range(400):
            n = int(rng.integers(1, 3000))
            keys = rng.integers(-50, 50, size=n) * int(rng.integers(1, 10**9))
            w = rng.integers(int(rng.integers(0, 2)), int(rng.choice([2, 5, 500])), size=n)
            w[rng.integers(0, n)] += 1
            if rng.random() < 0.3:
                w[rng.integers(0, n)] += 3 * int(w.sum())
            d = int(rng.integers(0, w.sum() + 1))
            yield keys, w, d, int(rng.choice(keys)) + int(rng.integers(-1, 2))
        # zero demand, with the smallest key on a row of zero weight
        for cur in (-10, 0, 10):
            yield np.array([5, -7, 3, 9, -2]), np.array([1, 0, 2, 0, 1]), 0, cur
        # All weight on the five keys farthest from cur: the first window of
        # 2 * (need * count // w_sum) + 16 keys nearest cur, and the doubled
        # one, carry none of it, so the search widens to the whole side.
        keys = np.arange(3000) * 7 - 5000
        below, above = np.zeros(3000, dtype=np.int64), np.zeros(3000, dtype=np.int64)
        below[:5] = above[-5:] = 1
        for d in range(6):
            yield keys, below, d, int(keys[-1]) + 1
            yield keys, above, d, int(keys[0]) - 1

    def test_quantile_matches_full_sort(self):
        # the partial search on one side of the current threshold finds the
        # value a full sort finds
        for t, (keys, w, d, cur) in enumerate(self.quantile_cases(np.random.default_rng(3))):
            if d == 0:  # the smallest key of a row with weight
                want = int(keys[w > 0].min())
            else:
                order = np.argsort(keys, kind="stable")
                want = int(keys[order][np.searchsorted(np.cumsum(w[order]), d)])
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
                v, choice = flow._sweep(C, s, d, v)
                swept = int(d @ v) + int(s @ (C - v).min(axis=1))
                assert swept >= dual
                # the sweep's own greedy start: lowest index on ties
                assert np.array_equal(choice, np.argmin(C - v, axis=1))
                dual = swept

    @staticmethod
    def stop_rule_cases(rng):
        """(costs, supplies, demands, start): random instances from cold and
        warm starts, then the cold 5k-block solve whose second sweep raises
        the excess (30,140 -> 14,760 -> 14,877)."""
        for t in range(40):
            inst = random_instance(rng, max_side=40, max_supply=30, max_cost=10**6)
            k = inst.n_demand
            if k < 2:  # one demand node has nothing to sweep
                continue
            start = rng.integers(-(10**6), 10**6, size=k) if t % 2 else np.zeros(k, np.int64)
            yield inst.costs, inst.supplies, inst.demands, start
        gauss = gaussian_instance(1, n=5_000, m=150_000, k=7)
        inst = transshipment(gauss, seed_centers(gauss, 7, 0))
        yield inst.costs, inst.supplies, inst.demands, np.zeros(7, np.int64)

    def test_every_sweep_is_kept_and_the_dual_never_falls(self):
        # the returned potentials are those of stats.sweeps consecutive
        # sweeps from the start, even where a sweep raised the excess
        raised_then_kept = 0
        for C, s, d, start in self.stop_rule_cases(np.random.default_rng(13)):
            v, _, _, stats = flow._dual_sweeps(C, s, d, start)
            assert 0 <= stats.sweeps <= 24
            replay = start
            excess = [flow._load(flow._greedy(C, start), s, d)[1]]
            for _ in range(stats.sweeps):
                replay, choice = flow._sweep(C, s, d, replay)
                excess.append(flow._load(choice, s, d)[1])
            if stats.sweeps:
                assert np.array_equal(v, replay)
            assert (stats.excess_before, stats.excess_after) == (excess[0], excess[-1])
            raised_then_kept += any(b > a for a, b in zip(excess, excess[1:-1]))
            dual = [int(d @ w) + int(s @ (C - w).min(axis=1)) for w in (start, v)]
            assert dual[1] >= dual[0]
        assert raised_then_kept

    @staticmethod
    def counted_tied_supply(monkeypatch):
        calls = []
        tied_supply = flow._tied_supply

        def counted(*args):
            calls.append(tied_supply(*args))
            return calls[-1]

        monkeypatch.setattr(flow, "_tied_supply", counted)
        return calls

    def test_stops_at_the_tie_floor(self, monkeypatch):
        # The first sweep lowers the excess from 6 to 1; the second leaves it
        # at 1 and is no fixed point. Under its potentials row 2 has reduced
        # cost 3 at every node, so its 3 persons are tied at overfull node 0
        # and the repair moves the one person of excess: the sweeps stop
        # there, and the tie floor is counted on that stalled sweep only.
        calls = self.counted_tied_supply(monkeypatch)
        C = np.array([[3, 1, 3], [0, 1, 0], [1, 0, 3]])
        s, d = np.array([3, 1, 3]), np.array([2, 0, 5])
        v, base, received, stats = flow._dual_sweeps(C, s, d, np.zeros(3, np.int64))
        assert (stats.sweeps, stats.excess_before, stats.excess_after) == (2, 6, 1)
        assert calls == [3]
        assert v.tolist() == [-2, -3, 0] and base.tolist() == [2, 2, 0]
        assert received.tolist() == [3, 0, 4]
        first = flow._sweep(C, s, d, np.zeros(3, np.int64))[0]
        assert not np.array_equal(v, first)  # the second sweep is no fixed point

    @pytest.mark.parametrize("start", [[0, 0], [7, 7], [-3, -3]])
    def test_a_fixed_point_stops_at_once(self, monkeypatch, start):
        # every row is tied, so the sweep returns the (normalized) potentials
        # it was given, and no tie-floor pass is made
        calls = self.counted_tied_supply(monkeypatch)
        C, s, d = np.zeros((2, 2), np.int64), np.array([1, 1]), np.array([1, 1])
        v, _, _, stats = flow._dual_sweeps(C, s, d, np.array(start))
        assert (stats.sweeps, stats.excess_before, stats.excess_after) == (1, 1, 1)
        assert v.tolist() == [0, 0] and calls == []

    @pytest.mark.parametrize("k", [2, 7, 53])
    def test_rows_without_supply_change_nothing(self, k):
        # Rows of zero supply ride along in the sweeps with weight 0: the
        # potentials, greedy start, received amounts and counts are those of
        # the instance without them, and their start is -1.
        rng = np.random.default_rng(k)
        n = 40 * k
        points = rng.uniform(0, 1000, size=(n, 2))
        centers = rng.uniform(300, 700, size=(k, 2))
        costs = ((points[:, None, :] - centers[None]) ** 2).sum(axis=2).astype(np.int64)
        supplies = rng.integers(1, 50, size=n) * (rng.random(n) < 0.6)
        total = int(supplies.sum())
        demands = np.full(k, total // k)
        demands[: total % k] += 1
        active = np.flatnonzero(supplies > 0)
        for warm in (np.zeros(k, dtype=np.int64), rng.integers(-(10**5), 10**5, size=k)):
            v, base, received, stats = flow._dual_sweeps(costs, supplies, demands, warm)
            v_a, base_a, received_a, stats_a = flow._dual_sweeps(
                np.asfortranarray(costs[active]), supplies[active], demands, warm
            )
            assert stats.sweeps >= 1
            assert np.array_equal(v, v_a)
            assert np.array_equal(base[active], base_a)
            assert np.all(np.delete(base, active) == -1)
            assert np.array_equal(received, received_a)
            assert stats == stats_a


# Below 2**19 supply nodes, keys pack as increment * 2**20 + index, so
# costs up to 2**41 in magnitude are the largest the relocation index takes.
PACK_BOUND = 2**41
EDGE_POTENTIALS = np.array([-(2**61), 2**61], dtype=np.int64)


def bound_instance(rng, n, k, max_supply=30):
    """Random costs in [-2**41, 2**41] with both extremes present."""
    costs = rng.integers(-PACK_BOUND, PACK_BOUND + 1, size=(n, k))
    costs[0, 0] = PACK_BOUND
    costs[-1, -1] = -PACK_BOUND
    supplies = rng.integers(0, max_supply, size=n)
    supplies[0] += 1
    total = int(supplies.sum())
    demands = np.full(k, total // k)
    demands[: total % k] += 1
    return flow.TransshipmentInstance(costs=costs, supplies=supplies, demands=demands)


GUARD_COST = 2**40  # times a total supply of 2**22: the objective guard's 2**62


def guard_instance(corner):
    """Two blocks of 2**21 persons and two centers. Every cost but
    costs[0, 0] = corner is 2**40 with corner's sign, so every flow of the
    instance at the guard costs exactly +-2**62."""
    costs = np.full((2, 2), int(np.sign(corner)) * GUARD_COST, dtype=np.int64)
    costs[0, 0] = corner
    return flow.TransshipmentInstance(costs=costs, supplies=[2**21] * 2, demands=[2**21] * 2)


class TestOverflowEdges:
    @pytest.mark.parametrize("seed", range(33))
    def test_costs_at_the_pack_bound_certify(self, seed):
        rng = np.random.default_rng(seed)
        for k in (2, 7, 53):
            inst = bound_instance(rng, int(rng.integers(2, 300)), k)
            for warm in (None, rng.choice(EDGE_POTENTIALS, size=k)):
                flow.certify(inst, flow.solve_mcf(inst, warm_potentials=warm))

    def test_largest_supply_index_at_the_pack_bound(self):
        # supplies below 3 keep the total under the objective guard's 2**21
        rng = np.random.default_rng(4)
        inst = bound_instance(rng, 2**19 - 1, 2, max_supply=3)
        flow.certify(inst, flow.solve_mcf(inst, warm_potentials=EDGE_POTENTIALS))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_objective_guard_edge_certifies(self, sign):
        inst = guard_instance(sign * GUARD_COST)
        sol = flow.solve_mcf(inst)
        flow.certify(inst, sol)
        assert sol.objective == sign * 2**62

    @pytest.mark.parametrize("seed", range(4))
    def test_random_costs_at_the_objective_guard_certify(self, seed):
        # 64 blocks of 2**16 persons, costs in [-2**40, 2**40] with both
        # extremes present, seven centers
        rng = np.random.default_rng(seed)
        costs = rng.integers(-GUARD_COST, GUARD_COST + 1, size=(64, 7))
        costs[0, 0] = GUARD_COST
        costs[-1, -1] = -GUARD_COST
        demands = np.full(7, 2**22 // 7)
        demands[: 2**22 % 7] += 1
        inst = flow.TransshipmentInstance(costs, np.full(64, 2**16), demands)
        for warm in (None, rng.choice(EDGE_POTENTIALS, size=7)):
            flow.certify(inst, flow.solve_mcf(inst, warm_potentials=warm))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_one_past_the_objective_guard_rejected(self, sign):
        with pytest.raises(flow.OverflowRiskError, match="64-bit overflow"):
            guard_instance(sign * (GUARD_COST + 1))

    def test_one_past_the_pack_bound_rejected(self):
        inst = flow.TransshipmentInstance(
            costs=[[PACK_BOUND + 1, 0], [0, 0]], supplies=[1, 1], demands=[1, 1]
        )
        with pytest.raises(flow.OverflowRiskError, match="relocation index"):
            flow.solve_mcf(inst)

    @pytest.mark.parametrize(
        "costs",
        [[[-(2**63)]], [[-(2**63), 0], [0, 5]]],
        ids=["single-arc", "two-by-two"],
    )
    def test_int64_minimum_cost_rejected(self, costs):
        # np.abs(-2**63) wraps to -2**63; the magnitude is taken exactly
        n = len(costs)
        with pytest.raises(flow.OverflowRiskError, match="64-bit overflow"):
            flow.TransshipmentInstance(costs=costs, supplies=[1] * n, demands=[1] * n)

    def test_int64_minimum_warm_potential_rejected(self):
        inst = flow.TransshipmentInstance(costs=[[7]], supplies=[1], demands=[1])
        with pytest.raises(flow.OverflowRiskError, match="warm potentials"):
            flow.solve_mcf(inst, warm_potentials=np.array([-(2**63)], dtype=np.int64))
