import numpy as np
import pytest

from districtor.model import CenterSet, balanced_capacities
from tests.oracle import (
    OracleBoundError,
    brute_force_balanced,
    brute_force_transport,
    naive_centroid,
    swap_heuristic,
)
from tests.conftest import make_instance


class TestBruteForceTransport:
    def test_forced(self):
        assert brute_force_transport([[7]], [1], [1]) == 7

    def test_prefers_cheap_arcs(self):
        assert brute_force_transport([[0, 5], [5, 0]], [1, 1], [1, 1]) == 0

    def test_rejects_imbalance(self):
        with pytest.raises(ValueError):
            brute_force_transport([[1]], [2], [1])


class TestBruteForceBalanced:
    def test_identity_matching(self):
        inst = make_instance([(0, 0), (1, 0)], [1, 1], k=2)
        centers = CenterSet(positions=[(0, 0), (1, 0)], capacities=[1, 1])
        asg, cost = brute_force_balanced(inst, centers)
        assert cost == 0.0
        assert asg.block_indices.tolist() == [0, 1]
        assert asg.center_indices.tolist() == [0, 1]

    def test_respects_capacities(self):
        # both persons would prefer center 0; one is forced away
        inst = make_instance([(0, 0), (0.1, 0)], [1, 1], k=2)
        centers = CenterSet(positions=[(0, 0), (1, 0)], capacities=[1, 1])
        asg, cost = brute_force_balanced(inst, centers)
        totals = asg.per_center_population(2)
        assert totals.tolist() == [1, 1]
        assert cost == pytest.approx(min(0.0 + 0.81, 0.01 + 1.0))

    def test_splits_blocks_when_cheaper(self):
        inst = make_instance([(0, 0)], [2], k=2)
        centers = CenterSet(positions=[(-1, 0), (1, 0)], capacities=[1, 1])
        asg, cost = brute_force_balanced(inst, centers)
        assert asg.persons.tolist() == [1, 1]
        assert cost == pytest.approx(2.0)

    def test_bounds_enforced(self):
        inst = make_instance([(0, 0)], [11], k=1)
        centers = CenterSet(positions=[(0, 0)], capacities=[11])
        with pytest.raises(OracleBoundError):
            brute_force_balanced(inst, centers)

    def test_capacity_pattern_7_over_3(self):
        rng = np.random.default_rng(1)
        inst = make_instance(rng.uniform(0, 1, (4, 2)), [2, 2, 2, 1], k=3)
        caps = balanced_capacities(7, 3)
        assert caps.tolist() == [2, 2, 3]
        centers = CenterSet(positions=rng.uniform(0, 1, (3, 2)), capacities=caps)
        asg, _ = brute_force_balanced(inst, centers)
        assert asg.per_center_population(3).tolist() == [2, 2, 3]


class TestNaiveCentroid:
    def test_single_point(self):
        assert naive_centroid([(2, 3)], [5]) == (2, 3)

    def test_midpoint(self):
        assert naive_centroid([(0, 0), (2, 0)], [1, 1]) == (1, 0)

    def test_weighted(self):
        assert naive_centroid([(0, 0), (4, 0)], [3, 1]) == (1, 0)

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            naive_centroid([(0, 0)], [0])


class TestSwapHeuristic:
    def test_fixes_obvious_swap(self):
        locs = [(0, 0), (1, 0)]
        centers = [(0, 0), (1, 0)]
        assert swap_heuristic(locs, centers, [1, 0]) == [0, 1]

    def test_terminates_at_optimum(self):
        locs = [(0, 0), (1, 0)]
        centers = [(0, 0), (1, 0)]
        assert swap_heuristic(locs, centers, [0, 1]) == [0, 1]
