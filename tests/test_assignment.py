import itertools

import numpy as np
import pytest

from districtor import flow
from districtor.assignment import (
    AssignmentError,
    CostModel,
    ScaledCostPolicy,
    cost_model_for,
    min_cost_balanced_assignment,
    solve_balanced,
    verify_power_consistency,
)
from districtor.lloyd import LloydConfig, run, seed_centers
from districtor.model import CenterSet, ModelError, assignment_cost, balanced_capacities
from tests.conftest import (
    gaussian_instance,
    hexagon_instance,
    make_instance,
    random_small_instance,
)
from tests.oracle import brute_force_balanced


def matching_cost(resident_locs, center_positions, matching):
    return sum(
        float(np.sum((resident_locs[i] - center_positions[x]) ** 2))
        for i, x in enumerate(matching)
    )


class TestTrivialMatchings:
    def test_zero_cost_perfect_matching(self):
        locs = [(0.0, 0.0), (3.0, 1.0), (-2.0, 5.0)]
        inst = make_instance(locs, [1, 1, 1], k=3)
        centers = CenterSet(positions=locs, capacities=[1, 1, 1])
        asg, weights = min_cost_balanced_assignment(inst, centers)
        assert assignment_cost(inst, centers, asg) == 0.0
        assert asg.block_indices.tolist() == [0, 1, 2]
        assert asg.center_indices.tolist() == [0, 1, 2]
        report = verify_power_consistency(
            inst, centers, asg, weights,
            tolerance=cost_model_for(inst, ScaledCostPolicy()).consistency_tolerance(),
        )
        assert report.ok

    def test_infeasible_capacities_rejected(self):
        inst = make_instance([(0, 0), (1, 0)], [1, 1], k=2)
        centers = CenterSet(positions=[(0, 0), (1, 0)], capacities=[1, 2])
        with pytest.raises(ModelError):
            min_cost_balanced_assignment(inst, centers)

    def test_overflow_policy_rejected(self):
        inst = make_instance([(0, 0), (1, 0)], [1, 1], k=2)
        centers = CenterSet(positions=[(0, 0), (1, 0)], capacities=[1, 1])
        with pytest.raises(flow.OverflowRiskError):
            min_cost_balanced_assignment(inst, centers, ScaledCostPolicy(scale=1e19))


class TestHexagonCounterExample:
    """Swap-local-optimal matchings are not min-cost; the solver must find
    the strictly cheaper matching."""

    def test_solver_finds_short_matching(self):
        inst, centers, rpos = hexagon_instance(eps=0.01)
        short = [0, 1, 2]  # resident i -> center i
        long = [(i + 1) % 3 for i in range(3)]  # resident i -> center i+1

        costs = {
            perm: matching_cost(rpos, centers.positions, perm)
            for perm in itertools.permutations(range(3))
        }
        best = min(costs, key=costs.get)
        assert best == tuple(short)
        assert costs[tuple(long)] > costs[tuple(short)]

        asg, weights = min_cost_balanced_assignment(inst, centers)
        assert asg.center_indices.tolist() == short
        got = assignment_cost(inst, centers, asg)
        assert got == pytest.approx(costs[tuple(short)], rel=1e-9)

    def test_edge_lengths_straddle_one(self):
        _, centers, rpos = hexagon_instance(eps=0.01)
        for i in range(3):
            d_short = float(np.sum((rpos[i] - centers.positions[i]) ** 2))
            d_long = float(np.sum((rpos[i] - centers.positions[(i + 1) % 3]) ** 2))
            assert d_short < 1.0 < d_long

    def test_long_matching_with_zero_weights_is_inconsistent(self):
        inst, centers, _ = hexagon_instance(eps=0.01)
        from districtor.model import BalancedAssignment

        long_asg = BalancedAssignment(
            block_indices=[0, 1, 2],
            center_indices=[1, 2, 0],
            persons=[1, 1, 1],
        )
        report = verify_power_consistency(
            inst, centers, long_asg, np.zeros(3), tolerance=1e-9
        )
        assert not report.ok


class TestAgainstOracle:
    def test_matches_brute_force_on_random_instances(self, rng):
        for t in range(120):
            inst, centers = random_small_instance(rng)
            res = solve_balanced(inst, centers)
            oracle_asg, oracle_cost = brute_force_balanced(inst, centers)
            got = assignment_cost(inst, centers, res.assignment)
            model = res.cost_model
            slack = inst.m * model.units_per_cost
            assert got <= oracle_cost + slack, f"instance {t}"
            assert got >= oracle_cost - slack, f"instance {t}"


class TestPowerConsistency:
    def test_solver_output_consistent_at_rounding_tolerance(self, rng):
        for _ in range(60):
            inst, centers = random_small_instance(rng)
            res = solve_balanced(inst, centers)
            report = verify_power_consistency(
                inst,
                centers,
                res.assignment,
                res.weights,
                tolerance=res.cost_model.consistency_tolerance(),
            )
            assert report.ok, report.violations

    def test_single_center_always_consistent(self):
        inst = make_instance([(0, 0), (5, 5)], [2, 1], k=1)
        centers = CenterSet(positions=[(9, 9)], capacities=[3])
        asg, weights = min_cost_balanced_assignment(inst, centers)
        report = verify_power_consistency(inst, centers, asg, weights, tolerance=0.0)
        assert report.ok

    def test_weight_count_checked(self):
        inst = make_instance([(0, 0), (1, 0)], [1, 1], k=2)
        centers = CenterSet(positions=[(0, 0), (1, 0)], capacities=[1, 1])
        asg, _ = min_cost_balanced_assignment(inst, centers)
        with pytest.raises(AssignmentError):
            verify_power_consistency(inst, centers, asg, np.zeros(3), tolerance=0.0)


class TestSplitting:
    def test_forced_split_has_tied_reduced_costs(self):
        inst = make_instance([(0.0, 0.0)], [2], k=2)
        centers = CenterSet(positions=[(-1.0, 0.0), (1.0, 0.0)], capacities=[1, 1])
        res = solve_balanced(inst, centers)
        asg = res.assignment
        assert asg.persons.tolist() == [1, 1]
        sol = res.flow_solution
        costs = res.cost_model.int_costs(inst.locations(), centers.positions)
        reduced = costs[0] - sol.demand_potentials
        assert reduced[0] == reduced[1]

    def test_splits_only_at_ties(self, rng):
        # whenever a block is split, the scaled reduced costs of its arcs agree
        for _ in range(80):
            inst, centers = random_small_instance(rng)
            res = solve_balanced(inst, centers)
            sol = res.flow_solution
            costs = res.cost_model.int_costs(inst.locations(), centers.positions)
            reduced = costs - sol.demand_potentials[np.newaxis, :]
            counts = np.bincount(sol.supply_idx, minlength=inst.n_blocks)
            for y in np.flatnonzero(counts > 1):
                arcs = sol.demand_idx[sol.supply_idx == y]
                vals = {int(reduced[int(y), int(x)]) for x in arcs}
                assert len(vals) == 1

    def test_weights_normalized_to_zero_min(self, rng):
        for _ in range(20):
            inst, centers = random_small_instance(rng)
            _, weights = min_cost_balanced_assignment(inst, centers)
            assert float(np.min(weights)) == 0.0


class TestCapacityPattern:
    def test_seven_persons_three_centers(self, rng):
        caps = balanced_capacities(7, 3)
        inst = make_instance(rng.uniform(-3, 3, (5, 2)), [2, 2, 2, 1, 0], k=3)
        centers = CenterSet(positions=rng.uniform(-3, 3, (3, 2)), capacities=caps)
        asg, _ = min_cost_balanced_assignment(inst, centers)
        assert asg.per_center_population(3).tolist() == [2, 2, 3]


class TestCostModel:
    def test_paired_costs_have_the_bits_of_int_costs(self, rng):
        model = CostModel(diameter=3.7, scale=1e9)
        points = rng.uniform(-50.0, 50.0, (400, 2))
        centers = rng.uniform(-60.0, 60.0, (9, 2))
        own = rng.integers(0, 9, size=400)
        full = model.int_costs(points, centers)
        assert np.array_equal(model.paired_costs(points, centers[own]), full[np.arange(400), own])

    def test_coincident_blocks_measure_absolute_distances(self):
        inst = make_instance([(2, 3), (2, 3)], [1, 1], k=1)
        assert cost_model_for(inst, ScaledCostPolicy()).diameter == 1.0


class TestSolveStats:
    """Work counts of the flow solver, read from ScaledSolveResult.flow_solution."""

    @staticmethod
    def cold_solves():
        for seed in range(4):
            inst = gaussian_instance(seed, n=5_000, m=150_000, k=7)
            yield solve_balanced(inst, seed_centers(inst, 7, 0)).flow_solution.stats

    def test_counts_repeat_exactly(self):
        assert list(self.cold_solves()) == list(self.cold_solves())

    def test_cold_gaussian_solves_stay_cheap(self):
        # Measured: 131, 1,469, 41 and 40 augmentations (1,681 in all) after
        # 11, 2, 5 and 6 sweeps. Without the sweeps they took 1,376, 1,827,
        # 1,042 and 1,233 (5,478).
        stats = list(self.cold_solves())
        assert sum(s.augmentations for s in stats) <= 2_000
        for s in stats:
            assert s.sweeps >= 1
            assert s.excess_after < s.excess_before
            assert s.augmentations <= s.excess_after


class TestPinnedCounts:
    """Counts and answers at k = 53, measured before flow's searches read a
    maintained table of relocation minima instead of peeking every pair
    queue. The table leaves every search in the same order, so the same
    paths, reprices, flows and potentials repeat exactly. A change to the
    order of the searches must re-measure these values and record them in
    CHANGES.md."""

    @staticmethod
    def instance():
        return gaussian_instance(0, n=1_000, m=30_000, k=53)

    def test_cold_solve(self):
        inst = self.instance()
        res = solve_balanced(inst, seed_centers(inst, 53, 0))
        s = res.flow_solution.stats
        assert (s.augmentations, s.reprices, s.sweeps) == (1_053, 1_039, 7)
        assert (s.excess_before, s.excess_after) == (9_173, 4_662)
        assert res.objective_scaled == 640_369_823_784
        # peeking every pair on every search read a queue minimum 2,929,564
        # times; with the table only pushes and departing witnesses read
        # one (69,704)
        assert s.queue_reads <= 100_000

    def test_lloyd_iterations(self):
        result = run(self.instance(), LloydConfig(seed=0, max_iterations=5))
        records = result.trace.iterations
        assert [(r.solve.augmentations, r.solve.reprices) for r in records] == [
            (1_053, 1_039), (409, 385), (236, 214), (109, 75), (73, 43)
        ]
        assert [r.rejected for r in records] == [0, 0, 0, 0, 1]
        assert records[-1].cost_scaled == 24_579_892_935
