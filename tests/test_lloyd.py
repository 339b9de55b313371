import itertools

import numpy as np
import pytest

from districtor.assignment import ScaledCostPolicy, solve_balanced
from districtor.lloyd import (
    LloydConfig,
    SeedingError,
    _guarded_positions,
    centroid_step,
    run,
    seed_centers,
)
from districtor.model import (
    BalancedAssignment,
    CenterSet,
    ModelError,
    assignment_cost,
    balanced_capacities,
)
from tests.conftest import gaussian_instance, make_instance
from tests.oracle import naive_centroid


class TestSeeding:
    def test_k1_returns_single_block_location(self):
        inst = make_instance([(0, 0), (5, 5)], [1, 3], k=1)
        centers = seed_centers(inst, 1, seed=0)
        assert centers.k == 1
        locs = {(0.0, 0.0), (5.0, 5.0)}
        assert (float(centers.positions[0, 0]), float(centers.positions[0, 1])) in locs
        assert centers.capacities.tolist() == [4]

    def test_coincident_blocks_k1(self):
        inst = make_instance([(2, 3), (2, 3)], [1, 1], k=1)
        centers = seed_centers(inst, 1, seed=3)
        assert centers.positions.tolist() == [[2.0, 3.0]]

    def test_zero_population_blocks_never_seed(self):
        inst = make_instance([(0, 0), (9, 9)], [0, 2], k=1)
        for seed in range(10):
            centers = seed_centers(inst, 1, seed=seed)
            assert centers.positions.tolist() == [[9.0, 9.0]]

    def test_k_exceeds_positive_blocks(self):
        inst = make_instance([(0, 0), (1, 1)], [2, 0], k=2)
        with pytest.raises(SeedingError):
            seed_centers(inst, 2, seed=0)

    def test_k_exceeds_distinct_locations(self):
        inst = make_instance([(0, 0), (0, 0), (1, 1)], [1, 1, 1], k=3)
        with pytest.raises(SeedingError):
            seed_centers(inst, 3, seed=0)

    def test_distance_squared_distribution(self):
        # blocks at x = 0, 1, 10 with unit population; conditioned on the
        # first center landing at 0, the second is 10 with chance 100/101
        inst = make_instance([(0, 0), (1, 0), (10, 0)], [1, 1, 1], k=3)
        hits = 0
        usable = 0
        for seed in range(3000):
            centers = seed_centers(inst, 2, seed=seed)
            if centers.positions[0].tolist() != [0.0, 0.0]:
                continue
            usable += 1
            if centers.positions[1].tolist() == [10.0, 0.0]:
                hits += 1
        assert usable > 800
        freq = hits / usable
        # expectation 0.9901, binomial std ~ 0.003 at this sample size
        assert 0.975 < freq <= 1.0

    def test_deterministic_given_seed(self):
        inst = gaussian_instance(seed=5, n=200, m=5000, k=4)
        a = seed_centers(inst, 4, seed=42)
        b = seed_centers(inst, 4, seed=42)
        assert np.array_equal(a.positions, b.positions)


class TestCentroidStep:
    def test_unit_blocks_mean(self):
        inst = make_instance([(0, 0), (2, 0), (1, 3)], [1, 1, 1], k=1)
        asg = BalancedAssignment(
            block_indices=[0, 1, 2], center_indices=[0, 0, 0], persons=[1, 1, 1]
        )
        centers = centroid_step(inst, asg)
        assert centers.positions[0].tolist() == [1.0, 1.0]

    def test_weighted_mean(self):
        inst = make_instance([(0, 0), (4, 0)], [3, 1], k=1)
        asg = BalancedAssignment(
            block_indices=[0, 1], center_indices=[0, 0], persons=[3, 1]
        )
        centers = centroid_step(inst, asg)
        assert centers.positions[0].tolist() == [1.0, 0.0]
        expect = naive_centroid([(0, 0), (4, 0)], [3, 1])
        assert centers.positions[0].tolist() == list(expect)

    def test_split_block_feeds_both_means(self):
        inst = make_instance([(0, 0), (2, 0), (2, 2)], [2, 1, 1], k=2)
        asg = BalancedAssignment(
            block_indices=[0, 0, 1, 2],
            center_indices=[0, 1, 0, 1],
            persons=[1, 1, 1, 1],
        )
        centers = centroid_step(inst, asg)
        assert centers.positions[0].tolist() == [1.0, 0.0]
        assert centers.positions[1].tolist() == [1.0, 1.0]
        assert centers.capacities.tolist() == [2, 2]

    def test_centroid_does_not_increase_cost(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 30))
            k = int(rng.integers(1, 4))
            pops = rng.integers(0, 5, size=n)
            total = int(pops.sum())
            if total < k:
                continue
            inst = make_instance(rng.uniform(-10, 10, (n, 2)), pops, k=k)
            centers = CenterSet(
                positions=rng.uniform(-10, 10, (k, 2)),
                capacities=balanced_capacities(total, k),
            )
            res = solve_balanced(inst, centers)
            before = assignment_cost(inst, centers, res.assignment)
            moved = centroid_step(inst, res.assignment)
            after = assignment_cost(inst, moved, res.assignment)
            assert after <= before * (1 + 1e-12) + 1e-12

    def test_guard_matches_full_cost_matrices(self):
        # the guard reads current costs from the duals and prices only each
        # entry's own candidate center; the full int_costs matrices agree
        inst = gaussian_instance(seed=12, n=300, m=9000, k=5)
        centers = seed_centers(inst, 5, 0)
        for _ in range(6):
            res = solve_balanced(inst, centers)
            asg, sol = res.assignment, res.flow_solution
            locs = inst.locations()[asg.block_indices]
            entries = np.arange(len(asg.persons))
            now = res.cost_model.int_costs(locs, centers.positions)[entries, asg.center_indices]
            duals = sol.supply_potentials[asg.block_indices] + sol.demand_potentials[asg.center_indices]
            assert np.array_equal(duals, now)

            def per_center(positions):
                own = res.cost_model.int_costs(locs, positions)[entries, asg.center_indices]
                totals = np.zeros(5, dtype=np.int64)
                np.add.at(totals, asg.center_indices, asg.persons * own)
                return totals

            candidate = centroid_step(inst, asg)
            accept = per_center(candidate.positions) < per_center(centers.positions)
            want = np.where(accept[:, None], candidate.positions, centers.positions)
            got = _guarded_positions(inst, res, centers, candidate)
            assert np.array_equal(got, want)
            centers = CenterSet(positions=got, capacities=centers.capacities)

    def test_empty_center_is_invariant_failure(self):
        inst = make_instance([(0, 0), (1, 0), (2, 0)], [1, 1, 1], k=3)
        asg = BalancedAssignment(
            block_indices=[0, 1, 2], center_indices=[0, 0, 2], persons=[1, 1, 1]
        )
        with pytest.raises(ModelError):
            centroid_step(inst, asg)


def best_balanced_partition_cost(locs, k):
    """Enumerate balanced partitions of unit blocks; centers at group means."""
    n = len(locs)
    locs = np.asarray(locs, dtype=np.float64)
    caps = balanced_capacities(n, k).tolist()
    best = np.inf
    for assign in itertools.product(range(k), repeat=n):
        counts = [assign.count(x) for x in range(k)]
        if sorted(counts) != sorted(caps):
            continue
        cost = 0.0
        for x in range(k):
            members = locs[[i for i in range(n) if assign[i] == x]]
            mean = members.mean(axis=0)
            cost += float(((members - mean) ** 2).sum())
        best = min(best, cost)
    return best


class TestRun:
    def test_k1_converges_to_population_centroid(self):
        inst = make_instance([(0, 0), (4, 0), (1, 3)], [2, 1, 1], k=1)
        result = run(inst, LloydConfig(seed=0))
        assert result.trace.converged
        assert len(result.trace.iterations) <= 2
        expect = naive_centroid([(0, 0), (4, 0), (1, 3)], [2, 1, 1])
        assert np.allclose(result.centers.positions[0], expect)

    def test_unit_square_two_groups(self):
        corners = [(0, 0), (1, 0), (0, 1), (1, 1)]
        inst = make_instance(corners, [1, 1, 1, 1], k=2)
        oracle_best = best_balanced_partition_cost(corners, 2)
        assert oracle_best == pytest.approx(1.0)
        for seed in range(6):
            result = run(inst, LloydConfig(seed=seed))
            assert result.trace.converged
            final = assignment_cost(inst, result.centers, result.assignment)
            assert final == pytest.approx(1.0, rel=1e-9)

    def test_two_gaussians_balance(self):
        inst = gaussian_instance(seed=9, n=500, m=20000, k=2, clusters=2)
        result = run(inst, LloydConfig(seed=1, max_iterations=50))
        assert result.trace.converged
        pops = result.assignment.per_center_population(2)
        assert abs(int(pops[0]) - int(pops[1])) <= 1
        assert np.array_equal(pops, result.centers.capacities)

    def test_trace_monotone_scaled(self):
        inst = gaussian_instance(seed=12, n=300, m=9000, k=5)
        result = run(inst, LloydConfig(seed=3))
        costs = [r.cost_scaled for r in result.trace.iterations]
        assert all(b <= a for a, b in zip(costs, costs[1:]))

    def test_deterministic(self):
        inst = gaussian_instance(seed=2, n=250, m=8000, k=3)
        a = run(inst, LloydConfig(seed=7))
        b = run(inst, LloydConfig(seed=7))
        assert a.trace == b.trace
        assert np.array_equal(a.centers.positions, b.centers.positions)
        assert np.array_equal(a.assignment.persons, b.assignment.persons)
        assert np.array_equal(a.weights, b.weights)

    def test_non_convergence_returns_best_so_far(self):
        inst = gaussian_instance(seed=4, n=400, m=12000, k=6)
        result = run(inst, LloydConfig(seed=0, max_iterations=1))
        assert not result.trace.converged
        assert len(result.trace.iterations) == 1
        # returned state is exactly the solved state for its centers
        asg = result.assignment
        assert np.array_equal(asg.per_block_assigned(inst.n_blocks), inst.populations())
        assert np.array_equal(asg.per_center_population(inst.k), result.centers.capacities)

    def test_final_assignment_matches_final_centers(self):
        inst = gaussian_instance(seed=21, n=300, m=10000, k=4)
        result = run(inst, LloydConfig(seed=5))
        res = solve_balanced(inst, result.centers)
        # re-solving at the returned centers reproduces the returned cost
        got = assignment_cost(inst, result.centers, result.assignment)
        fresh = assignment_cost(inst, result.centers, res.assignment)
        assert got == pytest.approx(fresh, rel=1e-12)

    def test_threshold_zero_allowed(self):
        inst = make_instance([(0, 0), (1, 0), (0, 1), (1, 1)], [1, 1, 1, 1], k=2)
        result = run(inst, LloydConfig(seed=0, threshold=0.0))
        assert result.trace.converged


class TestDegenerateInstances:
    """Geometry and population shapes that stress tie handling."""

    def _check(self, inst, seeds=(0, 1)):
        from districtor.assignment import ScaledCostPolicy, cost_model_for, verify_power_consistency

        tol = cost_model_for(inst, ScaledCostPolicy()).consistency_tolerance()
        for seed in seeds:
            result = run(inst, LloydConfig(seed=seed, max_iterations=300))
            costs = [r.cost_scaled for r in result.trace.iterations]
            assert all(b <= a for a, b in zip(costs, costs[1:]))
            pops = result.assignment.per_center_population(inst.k)
            assert np.array_equal(pops, balanced_capacities(inst.m, inst.k))
            report = verify_power_consistency(
                inst, result.centers, result.assignment, result.weights, tolerance=tol
            )
            assert report.ok, report.violations

    def test_collinear_blocks(self):
        locs = [(float(i), 0.0) for i in range(20)]
        self._check(make_instance(locs, [3] * 20, k=4))

    def test_many_duplicate_locations(self, rng):
        base = rng.uniform(0, 1, size=(5, 2))
        locs = np.repeat(base, 8, axis=0)
        pops = rng.integers(1, 9, size=40)
        self._check(make_instance(locs, pops, k=3))

    def test_one_dominant_block(self):
        locs = [(0.0, 0.0), (5.0, 0.0), (0.0, 5.0), (5.0, 5.0)]
        self._check(make_instance(locs, [997, 1, 1, 1], k=3))

    def test_perfect_matching_scale(self, rng):
        locs = rng.uniform(0, 10, size=(6, 2))
        self._check(make_instance(locs, [1] * 6, k=6))

    def test_zero_population_blocks_mixed_in(self, rng):
        locs = rng.uniform(0, 10, size=(30, 2))
        pops = rng.integers(0, 4, size=30)
        while int((pops > 0).sum()) < 5 or int(pops.sum()) < 5:
            pops = rng.integers(0, 4, size=30)
        self._check(make_instance(locs, pops, k=5))

    def test_coincident_external_centers_assignment(self):
        # not reachable through seeding, but the assignment layer must cope
        inst = make_instance([(0.0, 0.0), (0.0, 0.0)], [1, 1], k=2)
        centers = CenterSet(positions=[(1.0, 1.0), (1.0, 1.0)], capacities=[1, 1])
        res = solve_balanced(inst, centers)
        asg, weights = res.assignment, res.weights
        assert asg.per_center_population(2).tolist() == [1, 1]
        assert assignment_cost(inst, centers, asg) == pytest.approx(4.0)
        assert weights[0] == weights[1]
