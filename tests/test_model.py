import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from districtor.model import (
    BalancedAssignment,
    CenterSet,
    Instance,
    ModelError,
    assignment_cost,
    balanced_capacities,
)
from tests.conftest import make_instance

coord = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def squared_distance(a, b) -> float:
    """The assignment cost of one person at a served by a center at b."""
    inst = Instance(["a"], [a], [1], k=1)
    centers = CenterSet(positions=[b], capacities=[1])
    asg = BalancedAssignment(block_indices=[0], center_indices=[0], persons=[1])
    return assignment_cost(inst, centers, asg)


class TestSquaredDistance:
    def test_identity(self):
        assert squared_distance((0, 0), (0, 0)) == 0

    def test_3_4_5(self):
        assert squared_distance((0, 0), (3, 4)) == 25

    def test_direct_arithmetic(self):
        # (1-(-2))^2 + (2-6)^2 = 9 + 16
        assert squared_distance((1, 2), (-2, 6)) == 25

    @given(ax=coord, ay=coord, bx=coord, by=coord)
    def test_symmetric_and_nonnegative(self, ax, ay, bx, by):
        d = squared_distance((ax, ay), (bx, by))
        assert d == squared_distance((bx, by), (ax, ay))
        assert d >= 0

    @given(x=coord, y=coord)
    def test_zero_on_diagonal(self, x, y):
        assert squared_distance((x, y), (x, y)) == 0


class TestBalancedCapacities:
    def test_divisible(self):
        assert balanced_capacities(6, 3).tolist() == [2, 2, 2]

    def test_remainder(self):
        # i solves 2i + 3(3 - i) = 7 => i = 2 floor entries
        assert balanced_capacities(7, 3).tolist() == [2, 2, 3]

    def test_alabama_row(self):
        caps = balanced_capacities(4779736, 7)
        assert caps.tolist() == [682819] * 4 + [682820] * 3
        assert int(caps.sum()) == 4779736

    def test_rejects_m_below_k(self):
        with pytest.raises(ModelError):
            balanced_capacities(2, 3)

    def test_rejects_bad_k(self):
        with pytest.raises(ModelError):
            balanced_capacities(5, 0)

    @given(m=st.integers(1, 10**9), k=st.integers(1, 400))
    def test_properties(self, m, k):
        if m < k:
            with pytest.raises(ModelError):
                balanced_capacities(m, k)
            return
        caps = balanced_capacities(m, k)
        assert len(caps) == k
        assert int(caps.sum()) == m
        assert int(caps.max()) - int(caps.min()) <= 1
        assert all(a <= b for a, b in zip(caps, caps[1:]))


class TestBlockValidation:
    """Each block is checked when the instance is built."""

    def test_negative_population(self):
        with pytest.raises(ModelError):
            Instance(["a", "b"], [(0, 0), (1, 0)], [2, -1], k=1)

    def test_non_integer_population(self):
        with pytest.raises(ModelError):
            Instance(["a"], [(0, 0)], [1.5], k=1)

    def test_non_finite_location(self):
        with pytest.raises(ModelError):
            Instance(["a"], [(float("nan"), 0)], [1], k=1)

    def test_zero_population_allowed(self):
        inst = Instance(["a", "b"], [(0, 0), (1, 0)], [0, 1], k=1)
        assert inst.populations().tolist() == [0, 1]


class TestInstanceValidation:
    def test_duplicate_ids(self):
        with pytest.raises(ModelError):
            Instance(["a", "a"], [(0, 0), (1, 0)], [1, 1], k=1)

    def test_population_below_k(self):
        with pytest.raises(ModelError):
            make_instance([(0, 0)], [1], k=2)

    def test_m_sums_blocks(self):
        inst = make_instance([(0, 0), (1, 1)], [3, 4], k=2)
        assert inst.m == 7


class TestColumnarInstance:
    @pytest.mark.parametrize(
        "ids, locations, populations, message",
        [
            (["a", "a"], [(0.0, 0.0), (1.0, 0.0)], [1, 1], "duplicate block id 'a'"),
            (["a", "b"], [(0.0, 0.0), (float("nan"), 0.0)], [1, 1], "'b': non-finite"),
            (["a", "b"], [(0.0, 0.0), (1.0, 0.0)], [2, -1], "'b': negative population"),
            (["a", "b"], [(0.0, 0.0), (1.0, 0.0)], [1.0, 2.0], "must be integers"),
            (["a", "b"], [(0.0, 0.0)], [1, 1], r"need \(n, 2\) locations"),
            (["a", "b"], [(0.0, 0.0), (1.0, 0.0)], [1], r"\(n,\) populations"),
            (["a", "b"], [(0.0, 0.0), (1.0, 0.0)], [2**62, 2**62], "exceeds the 64-bit"),
        ],
        ids=[
            "duplicate-id", "nan-location", "negative", "float", "short-locations", "short-pops",
            "total-overflows",
        ],
    )
    def test_rejects_invalid_columns(self, ids, locations, populations, message):
        with pytest.raises(ModelError, match=message):
            Instance(ids=ids, locations=locations, populations=populations, k=1)

    def test_columns_are_read_only(self):
        inst = Instance(
            ids=["a", "b"], locations=[(0.5, -1.0), (2.0, 4.0)], populations=[3, 4], k=2,
            name="two",
        )
        assert inst.m == 7 and inst.n_blocks == 2
        assert inst.ids == ("a", "b") and inst.name == "two"
        assert inst.locations().tolist() == [[0.5, -1.0], [2.0, 4.0]]
        assert inst.populations().tolist() == [3, 4]
        with pytest.raises(ValueError):
            inst.locations()[0, 0] = 5.0
        with pytest.raises(ValueError):
            inst.populations()[0] = 5

    def test_from_blocks_matches_columns(self):
        blocks = (("a", (0.5, -1.0), 3), ("b", (2.0, 4.0), 0))
        ids, locations, populations = zip(*blocks)
        inst = Instance(ids, locations, populations, k=1, name="two")
        rebuilt = tuple(
            (i, tuple(xy), p)
            for i, xy, p in zip(inst.ids, inst.locations().tolist(), inst.populations().tolist())
        )
        assert rebuilt == blocks
        assert inst.locations().tolist() == [[0.5, -1.0], [2.0, 4.0]]
        assert inst.populations().tolist() == [3, 0]
        assert inst.m == 3 and inst.name == "two"

    def test_diameter_is_the_bounding_box_diagonal(self):
        inst = make_instance([(1, 1), (4, 2), (2, 5)], [1, 1, 1], k=1)
        assert inst.diameter == 5.0
        assert inst.diameter is inst.diameter  # computed once per instance
        assert make_instance([(2, 3), (2, 3)], [1, 1], k=1).diameter == 0.0


class TestCenterSet:
    def test_rejects_unbalanced_capacities(self):
        with pytest.raises(ModelError):
            CenterSet(positions=[(0, 0), (1, 1)], capacities=[1, 3])

    def test_rejects_zero_capacity(self):
        with pytest.raises(ModelError):
            CenterSet(positions=[(0, 0)], capacities=[0])

    def test_validate_for_checks_total(self):
        inst = make_instance([(0, 0), (1, 0)], [2, 2], k=2)
        centers = CenterSet(positions=[(0, 0), (1, 0)], capacities=[1, 2])
        with pytest.raises(ModelError):
            centers.validate_for(inst)


class TestAssignmentCost:
    def test_zero_distance(self):
        inst = make_instance([(0, 0), (1, 0)], [1, 1], k=2)
        centers = CenterSet(positions=[(0, 0), (1, 0)], capacities=[1, 1])
        asg = BalancedAssignment(
            block_indices=[0, 1], center_indices=[0, 1], persons=[1, 1]
        )
        assert assignment_cost(inst, centers, asg) == 0.0

    def test_forced_assignment(self):
        inst = make_instance([(0, 0)], [2], k=1)
        centers = CenterSet(positions=[(1, 0)], capacities=[2])
        asg = BalancedAssignment(block_indices=[0], center_indices=[0], persons=[2])
        assert assignment_cost(inst, centers, asg) == 2.0

    def test_linear_in_flows(self):
        # a unit split between two coincident centers costs the same as the
        # whole block shipped to one center at that location
        inst2 = make_instance([(0, 0)], [2], k=2)
        twin = CenterSet(positions=[(2, 1), (2, 1)], capacities=[1, 1])
        split = BalancedAssignment(
            block_indices=[0, 0], center_indices=[0, 1], persons=[1, 1]
        )
        inst1 = make_instance([(0, 0)], [2], k=1)
        single = CenterSet(positions=[(2, 1)], capacities=[2])
        whole = BalancedAssignment(block_indices=[0], center_indices=[0], persons=[2])
        assert assignment_cost(inst2, twin, split) == assignment_cost(inst1, single, whole)

    def test_split_rows_merge(self):
        inst = make_instance([(0, 0)], [2], k=2)
        centers = CenterSet(positions=[(1, 0), (-1, 0)], capacities=[1, 1])
        asg = BalancedAssignment(
            block_indices=[0, 0], center_indices=[1, 0], persons=[1, 1]
        )
        # entries are sorted by (block, center)
        assert asg.center_indices.tolist() == [0, 1]
        assert assignment_cost(inst, centers, asg) == 2.0

    def test_unchanged_when_the_entries_are_permuted(self, rng):
        # entries are summed in (block, center) order, so relabelling the
        # blocks reorders the sum; an exactly rounded sum does not move
        n, k = 2_000, 5
        locs = rng.normal(0.0, 100.0, size=(n, 2)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
        pops = rng.integers(1, 10**4, size=n)
        ci = rng.integers(0, k, size=n)
        centers = CenterSet(
            positions=rng.normal(0.0, 100.0, size=(k, 2)),
            capacities=balanced_capacities(int(pops.sum()), k),
        )
        asg = BalancedAssignment(block_indices=np.arange(n), center_indices=ci, persons=pops)
        cost = assignment_cost(make_instance(locs, pops, k), centers, asg)
        for _ in range(5):
            perm = rng.permutation(n)  # block b of the relabelled instance is block perm[b]
            moved = BalancedAssignment(
                block_indices=np.argsort(perm), center_indices=ci, persons=pops
            )
            inst = make_instance(locs[perm], pops[perm], k)
            assert assignment_cost(inst, centers, moved) == cost


class TestAssignmentEntries:
    """BalancedAssignment keeps its entries in (block, center) order: entries
    already in order are kept as given, others are sorted as np.lexsort
    sorts them, and centroids have the bits of a sequential sum."""

    @staticmethod
    def lexsorted(bi, ci, pe):
        order = np.lexsort((ci, bi))
        return bi[order].tolist(), ci[order].tolist(), pe[order].tolist()

    @given(
        entries=st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 3), st.integers(1, 9)), max_size=40
        ),
    )
    def test_unsorted_and_duplicate_entries_come_out_sorted(self, entries):
        bi, ci, pe = (np.array([e[j] for e in entries], dtype=np.int64) for j in range(3))
        asg = BalancedAssignment(block_indices=bi, center_indices=ci, persons=pe)
        got = (asg.block_indices.tolist(), asg.center_indices.tolist(), asg.persons.tolist())
        assert got == self.lexsorted(bi, ci, pe)
        # sorted entries stay as they are, duplicates included
        again = BalancedAssignment(*(np.array(col) for col in got))
        assert (again.block_indices.tolist(), again.center_indices.tolist(),
                again.persons.tolist()) == got

    def test_owns_read_only_copies(self):
        bi = np.array([0, 1], dtype=np.int64)
        asg = BalancedAssignment(block_indices=bi, center_indices=[0, 0], persons=[1, 2])
        bi[0] = 1
        assert asg.block_indices.tolist() == [0, 1]
        assert bi.flags.writeable and not asg.block_indices.flags.writeable

    def test_centroids_have_the_bits_of_a_sequential_sum(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 300))
            k = int(rng.integers(1, 9))
            locs = rng.normal(0.0, 100.0, size=(n, 2)) * 10.0 ** rng.integers(-3, 4)
            inst = make_instance(locs, rng.integers(0, 50, size=n), k=1)
            e = int(rng.integers(1, 2 * n + 1))
            bi = rng.integers(0, n, size=e)
            # center k - 1 receives no entry: its centroid is NaN
            ci = rng.integers(0, max(k - 1, 1), size=e)
            pe = rng.integers(1, 10**6, size=e)
            asg = BalancedAssignment(block_indices=bi, center_indices=ci, persons=pe)
            # the 2-d np.add.at sum that bincount replaced
            sums = np.zeros((k, 2))
            np.add.at(
                sums, asg.center_indices,
                inst.locations()[asg.block_indices] * asg.persons.astype(np.float64)[:, None],
            )
            counts = asg.per_center_population(k).astype(np.float64)
            counts[counts == 0] = np.nan
            got = asg.centroids(inst, asg.per_center_population(k))
            assert got.tobytes() == (sums / counts[:, None]).tobytes()
            if k > 1:
                assert np.isnan(got[k - 1]).all()

