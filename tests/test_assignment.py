import dataclasses
import hashlib
import itertools
import warnings

import numpy as np
import pytest

from districtor import flow
from districtor.assignment import (
    _BLOCK_ENTRIES,
    AssignmentError,
    CostModel,
    ScaledCostPolicy,
    cost_model_for,
    solve_balanced,
    verify_power_consistency,
)
from districtor.lloyd import LloydConfig, centroid_step, run, seed_centers
from districtor.model import CenterSet, ModelError, assignment_cost, balanced_capacities
from tests.conftest import (
    gaussian_instance,
    grid_transshipment,
    hexagon_instance,
    make_instance,
    random_small_instance,
    transshipment,
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
        res = solve_balanced(inst, centers)
        asg, weights = res.assignment, res.weights
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
            solve_balanced(inst, centers)

    def test_overflow_policy_rejected(self):
        inst = make_instance([(0, 0), (1, 0)], [1, 1], k=2)
        centers = CenterSet(positions=[(0, 0), (1, 0)], capacities=[1, 1])
        with pytest.raises(flow.OverflowRiskError):
            solve_balanced(inst, centers, ScaledCostPolicy(scale=1e19))


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

        res = solve_balanced(inst, centers)
        asg, weights = res.assignment, res.weights
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
        res = solve_balanced(inst, centers)
        asg, weights = res.assignment, res.weights
        report = verify_power_consistency(inst, centers, asg, weights, tolerance=0.0)
        assert report.ok

    def test_weight_count_checked(self):
        inst = make_instance([(0, 0), (1, 0)], [1, 1], k=2)
        centers = CenterSet(positions=[(0, 0), (1, 0)], capacities=[1, 1])
        asg = solve_balanced(inst, centers).assignment
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
            weights = solve_balanced(inst, centers).weights
            assert float(np.min(weights)) == 0.0


class TestCapacityPattern:
    def test_seven_persons_three_centers(self, rng):
        caps = balanced_capacities(7, 3)
        inst = make_instance(rng.uniform(-3, 3, (5, 2)), [2, 2, 2, 1, 0], k=3)
        centers = CenterSet(positions=rng.uniform(-3, 3, (3, 2)), capacities=caps)
        asg = solve_balanced(inst, centers).assignment
        assert asg.per_center_population(3).tolist() == [2, 2, 3]


class TestCostModel:
    def test_paired_costs_have_the_bits_of_int_costs(self, rng):
        model = CostModel(diameter=3.7, scale=1e9)
        points = rng.uniform(-50.0, 50.0, (400, 2))
        centers = rng.uniform(-60.0, 60.0, (9, 2))
        own = rng.integers(0, 9, size=400)
        full = model.int_costs(points, centers)
        assert np.array_equal(model.paired_costs(points, centers[own]), full[np.arange(400), own])

    def test_int_costs_are_column_major_with_the_row_major_bits(self, rng):
        model = CostModel(diameter=41.3, scale=1e9)
        points = rng.uniform(-50.0, 50.0, (1000, 2))
        centers = rng.uniform(-60.0, 60.0, (7, 2))
        full = model.int_costs(points, centers)
        assert full.shape == (1000, 7) and full.dtype == np.int64
        assert full.flags.f_contiguous
        row_major = model.paired_costs(points[:, None], centers[None])
        assert row_major.flags.c_contiguous
        assert full.tobytes(order="C") == row_major.tobytes()

    @pytest.mark.parametrize("k", [1, 7, 53])
    def test_int_costs_in_row_blocks_have_the_bits_of_paired_costs(self, rng, k):
        rows = _BLOCK_ENTRIES // k
        n = 3 * rows + rows // 3  # three full blocks of rows and a partial one
        model = CostModel(diameter=41.3, scale=1e9)
        points = rng.uniform(-50.0, 50.0, (n, 2))
        centers = rng.uniform(-60.0, 60.0, (k, 2))
        full = model.int_costs(points, centers)
        assert full.shape == (n, k) and full.flags.f_contiguous
        row_major = model.paired_costs(points[:, None], centers[None])
        assert full.tobytes(order="C") == row_major.tobytes()

    def test_overflow_in_the_last_block_alone_is_rejected(self, rng):
        k = 7
        n = 3 * (_BLOCK_ENTRIES // k) + 5
        model = CostModel(diameter=1.0, scale=1e9)
        points = rng.uniform(-1.0, 1.0, (n, 2))
        points[-1] = (1e30, 0.0)
        centers = rng.uniform(-1.0, 1.0, (k, 2))
        assert model.int_costs(points[:-1], centers).shape == (n - 1, k)
        with pytest.raises(flow.OverflowRiskError) as blocked:
            model.int_costs(points, centers)
        with pytest.raises(flow.OverflowRiskError) as whole:
            model.paired_costs(points[:, None], centers[None])
        assert str(blocked.value) == str(whole.value)

    @pytest.mark.parametrize(
        "size, scale, change", [(1.0, 1e-310, "raise"), (1e-150, 1e10, "lower")]
    )
    def test_scale_must_leave_a_normal_cost_unit(self, size, scale, change):
        # one cost unit is (5 * size)**2 / scale: inf, then 2.5e-309, subnormal
        inst = make_instance([(0, 0), (3 * size, 4 * size)], [1, 1], k=1)
        with pytest.raises(AssignmentError, match=f"not a normal float; {change} the cost"):
            cost_model_for(inst, ScaledCostPolicy(scale=scale))
        cost_model_for(inst, ScaledCostPolicy())  # the default scale is accepted at both

    def test_overflow_is_rejected_without_a_warning(self):
        # an ulp of a centroid at 5e299, squared, overflowed with a
        # RuntimeWarning on stderr before the range test raised
        model = CostModel(diameter=1.0, scale=1e9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(flow.OverflowRiskError):
                model.paired_costs(np.array([[5e299, 0.0]]), np.array([[-5e299, 0.0]]))

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

    def test_split_blocks_count_the_entries(self):
        # measured through the entries before the count was kept: 5, 6, 6, 6
        counted = []
        for seed in range(4):
            inst = gaussian_instance(seed, n=5_000, m=150_000, k=7)
            sol = solve_balanced(inst, seed_centers(inst, 7, 0)).flow_solution
            assert sol.stats.split_blocks == np.count_nonzero(np.bincount(sol.supply_idx) > 1)
            counted.append(sol.stats.split_blocks)
        assert counted == [5, 6, 6, 6]

    def test_cold_gaussian_solves_stay_cheap(self):
        # Measured: 56, 69, 7 and 22 augmentations (154 in all) after 14,
        # 17, 6 and 7 sweeps. When a sweep that did not lower the excess
        # ended the sweeps and was dropped, they took 131, 1,469, 41 and 40
        # (1,681) after 11, 2, 5 and 6; without the sweeps 1,376, 1,827,
        # 1,042 and 1,233 (5,478).
        stats = list(self.cold_solves())
        assert sum(s.augmentations for s in stats) <= 300
        for s in stats:
            assert s.sweeps >= 1
            assert s.excess_after < s.excess_before
            assert s.augmentations <= s.excess_after


class TestSolveFingerprint:
    """SHA-256 of the entries, both potential vectors and the objective of
    cold solves, measured before the dual sweeps stopped gathering the rows
    with supply and stopped using masked passes. A change that moves any
    answer of the solver fails here; one that means to must re-measure the
    hashes and record the old and new values in CHANGES.md."""

    PINNED = [
        ((0, 5_000, 150_000, 7), "d438b0c4f21835f42a55fb0219a3704f053ea8ddacd2e872454e350464a22c04"),
        ((1, 5_000, 150_000, 7), "e28e6155aeaf438a8eb9f75bba4bba86fa0c05bc17b5ea4f9e9e19d91ed648db"),
        ((2, 5_000, 150_000, 7), "422538a69b78e5b62cf8787b0d904a2e22432ba683ad495598496fc34c104766"),
        ((3, 5_000, 150_000, 7), "bd05522b76ce1e1a528949a8decfdae1570249347f57f908b629cb816ee0c731"),
        ((0, 1_000, 30_000, 53), "43581b17390cb49e7a8bfbca846c808b8fd9d36c08c78cfe556f97d3f3b3aab0"),
    ]

    @staticmethod
    def fingerprint(sol: flow.FlowSolution) -> str:
        h = hashlib.sha256()
        for a in (
            sol.supply_idx,
            sol.demand_idx,
            sol.amounts,
            sol.supply_potentials,
            sol.demand_potentials,
        ):
            h.update(np.ascontiguousarray(a, dtype="<i8").tobytes())
        h.update(str(sol.objective).encode())
        return h.hexdigest()

    @pytest.mark.parametrize(
        ("shape", "digest"), PINNED, ids=[f"seed{s}-{n}x{k}" for (s, n, _, k), _ in PINNED]
    )
    def test_cold_solve_answers_repeat(self, shape, digest):
        seed, n, m, k = shape
        inst = gaussian_instance(seed, n=n, m=m, k=k)
        sol = solve_balanced(inst, seed_centers(inst, k, 0)).flow_solution
        assert self.fingerprint(sol) == digest

    GRID_PINNED = [
        (0, "267ed867b974d26b31d39b7be0c86be1e69459529b3e074e037b7bd3f3c6852c", (44, 8, 944)),
        (1, "2f706319d29092ef1a719ca4b9747f119682e6691838796e0cdcd372b201035d", (44, 3, 214)),
    ]

    @pytest.mark.parametrize(("seed", "digest", "counts"), GRID_PINNED, ids=["seed0", "seed1"])
    def test_grid_solve_that_moves_many_blocks_per_hop(self, seed, digest, counts):
        """The solves above, like the benchmark's, move one block per hop of
        an augmenting path. Tied costs on a 6 x 6 grid put up to 44 blocks
        on one hop of these 1,000 x 23 solves, and on seed 1 a block joins
        a center with a lower index than the member that achieves a least
        relocation it ties.
        Measured, with the counts of augmentations, reprices and table
        reads, when each hop walked its pair queue."""
        inst, _ = grid_transshipment(seed, n=1_000, side=6, k=23)
        sol = flow.solve_mcf(inst)
        assert self.fingerprint(sol) == digest
        s = sol.stats
        assert (s.augmentations, s.reprices, s.table_reads) == counts


RELATION_CASES = ["1000x53-cold", "1000x53-warm", "5000x7-seed1"]


def relation_case(name):
    """A flow instance at the sizes of the benchmark, and its warm start."""
    if name in ("5000x7-seed1", "100000x7-seed1"):
        n, m = (5_000, 150_000) if name == "5000x7-seed1" else (100_000, 4_779_736)
        inst = gaussian_instance(1, n=n, m=m, k=7)
        return transshipment(inst, seed_centers(inst, 7, 0)), None
    inst = gaussian_instance(0, n=1_000, m=30_000, k=53)
    seeds = seed_centers(inst, 53, 0)
    if name == "1000x53-cold":
        return transshipment(inst, seeds), None
    # the first Lloyd step: the centroids, warm from the seeds' potentials
    first = solve_balanced(inst, seeds)
    moved = centroid_step(inst, first.assignment)
    return transshipment(inst, moved), first.flow_solution.demand_potentials


class TestShiftedCosts:
    """Adding c[y] to the costs of row y and d[x] to those of column x moves
    the cost of every feasible flow, and so the optimum, by exactly
    supplies @ c + demands @ d. The shift moves the sweeps, the greedy start
    and the repair onto another path, so this checks the answer by a second
    route at the sizes of the benchmark: the shifted solution, its
    potentials mapped back as u - c and v - d, must certify on the original
    instance. Shifts of up to 10**8 keep the costs inside both guards. The
    last case has the size of the statewide benchmark run."""

    SHIFT = 10**8

    @pytest.mark.parametrize("name", [*RELATION_CASES, "100000x7-seed1"])
    def test_shift_moves_the_optimum_exactly(self, name):
        inst, warm = relation_case(name)
        rng = np.random.default_rng(len(name))
        c = rng.integers(-self.SHIFT, self.SHIFT + 1, size=inst.n_supply)
        d = rng.integers(-self.SHIFT, self.SHIFT + 1, size=inst.n_demand)
        shifted = flow.TransshipmentInstance(
            np.asfortranarray(inst.costs + c[:, None] + d), inst.supplies, inst.demands
        )
        sol = flow.solve_mcf(inst, warm_potentials=warm)
        flow.certify(inst, sol)
        moved = flow.solve_mcf(shifted, warm_potentials=warm)
        flow.certify(shifted, moved)
        assert moved.stats != sol.stats  # another path
        offset = int(inst.supplies @ c) + int(inst.demands @ d)
        assert moved.objective == sol.objective + offset
        back = dataclasses.replace(
            moved,
            supply_potentials=moved.supply_potentials - c,
            demand_potentials=moved.demand_potentials - d,
            objective=moved.objective - offset,
        )
        flow.certify(inst, back)


class TestPermutedAndSplitRows:
    """Two more relations that any exact solver meets, on the cases of
    TestShiftedCosts: the optimum does not change when the supply rows are
    permuted, or when blocks become two rows each, with their costs and
    supplies that sum to theirs. Each solution must certify on its own
    instance, and mapped back, on the original."""

    @staticmethod
    def solve(inst, warm):
        sol = flow.solve_mcf(inst, warm_potentials=warm)
        flow.certify(inst, sol)
        return sol

    @pytest.mark.parametrize("name", RELATION_CASES)
    def test_permuted_rows_keep_the_optimum(self, name):
        inst, warm = relation_case(name)
        sol = self.solve(inst, warm)
        perm = np.random.default_rng(len(name)).permutation(inst.n_supply)
        permuted = flow.TransshipmentInstance(
            np.asfortranarray(inst.costs[perm]), inst.supplies[perm], inst.demands
        )
        moved = self.solve(permuted, warm)
        assert moved.objective == sol.objective
        # row i of the permuted instance is row perm[i] of the original
        u = np.empty_like(moved.supply_potentials)
        u[perm] = moved.supply_potentials
        flow.certify(
            inst,
            dataclasses.replace(moved, supply_idx=perm[moved.supply_idx], supply_potentials=u),
        )

    @pytest.mark.parametrize("name", RELATION_CASES)
    def test_split_rows_keep_the_optimum(self, name):
        inst, warm = relation_case(name)
        sol = self.solve(inst, warm)
        # every block of two or more persons gives half of them to a new
        # row with its costs, appended after the blocks
        n = inst.n_supply
        big = np.flatnonzero(inst.supplies >= 2)
        half = inst.supplies[big] // 2
        supplies = inst.supplies.copy()
        supplies[big] -= half
        twin = flow.TransshipmentInstance(
            np.asfortranarray(np.vstack([inst.costs, inst.costs[big]])),
            np.append(supplies, half),
            inst.demands,
        )
        moved = self.solve(twin, warm)
        assert moved.objective == sol.objective
        # merged back into their blocks, the rows certify on the original
        flow.certify(
            inst,
            dataclasses.replace(
                moved,
                supply_idx=np.append(np.arange(n), big)[moved.supply_idx],
                supply_potentials=moved.supply_potentials[:n],
            ),
        )


class TestPinnedCounts:
    """Counts and answers at k = 53, measured when the dual sweeps began to
    keep every sweep. The objectives and rejections were the same under the
    old stop rule, and the maintained table of relocation minima leaves
    every search in the same order as peeking every pair queue did. A change
    to the dual start or to the order of the searches must re-measure these
    values and record the old and new ones in CHANGES.md."""

    @staticmethod
    def instance():
        return gaussian_instance(0, n=1_000, m=30_000, k=53)

    def test_cold_solve(self):
        inst = self.instance()
        res = solve_balanced(inst, seed_centers(inst, 53, 0))
        s = res.flow_solution.stats
        assert (s.augmentations, s.reprices, s.sweeps) == (951, 940, 24)
        assert (s.excess_before, s.excess_after) == (9_173, 3_858)
        assert res.flow_solution.objective == 640_369_823_784
        # peeking every pair on every search read a queue minimum 2,929,564
        # times; with the table only pushes and departing witnesses read
        # one (69,704; 63,824 since every sweep is kept)
        assert s.queue_reads <= 100_000

    def test_lloyd_iterations(self):
        result = run(self.instance(), LloydConfig(seed=0, max_iterations=5))
        records = result.trace.iterations
        assert [(r.solve.augmentations, r.solve.reprices) for r in records] == [
            (951, 940), (200, 172), (233, 210), (106, 72), (68, 35)
        ]
        assert [r.rejected for r in records] == [0, 0, 0, 0, 1]
        assert records[-1].cost_scaled == 24_579_892_935
