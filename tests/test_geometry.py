import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from districtor.geometry import (
    bisector_halfplane,
    compute_cells,
    default_frame,
    diagram_stats,
)
from tests.oracle import point_in_cell


def polygon_area(vertices: np.ndarray) -> float:
    if len(vertices) < 3:
        return 0.0
    x = vertices[:, 0]
    y = vertices[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def random_diagram(rng, k, frame=(0.0, 0.0, 1.0, 1.0)):
    x0, y0, x1, y1 = frame
    centers = np.column_stack(
        [rng.uniform(x0, x1, size=k), rng.uniform(y0, y1, size=k)]
    )
    weights = rng.uniform(0.0, 0.05, size=k)
    return centers, weights


class TestBisector:
    def test_unweighted_midline(self):
        a, b = bisector_halfplane((0, 0), 0.0, (2, 0), 0.0)
        # halfplane x <= 1
        assert a == (4.0, 0.0)
        assert b == pytest.approx(4.0)

    def test_weight_shifts_boundary(self):
        a, b = bisector_halfplane((0, 0), 0.0, (2, 0), 4.0)
        # 2*(2,0).p <= 4 - 0 - 4 + 0 => x <= 0
        assert a == (4.0, 0.0)
        assert b == pytest.approx(0.0)

    def test_equal_weights_cancel(self):
        base = bisector_halfplane((0, 0), 0.0, (2, 0), 0.0)
        for c in (-3.0, 1.5, 100.0):
            shifted = bisector_halfplane((0, 0), c, (2, 0), c)
            assert shifted[0] == base[0]
            assert shifted[1] == pytest.approx(base[1])

    def test_coincident_centers_return_none(self):
        assert bisector_halfplane((1, 1), 0.0, (1, 1), 5.0) is None


class TestComputeCells:
    def test_single_center_fills_frame(self):
        cells = compute_cells(np.array([[0.5, 0.5]]), np.zeros(1), (0, 0, 1, 1))
        assert len(cells) == 1
        assert not cells[0].is_empty
        assert cells[0].clipped
        assert polygon_area(cells[0].vertices) == pytest.approx(1.0)
        assert cells[0].edge_sources == (-1, -2, -3, -4)

    def test_two_centers_split_evenly(self):
        centers = np.array([[0.25, 0.5], [0.75, 0.5]])
        cells = compute_cells(centers, np.zeros(2), (0, 0, 1, 1))
        areas = [polygon_area(c.vertices) for c in cells]
        assert areas[0] == pytest.approx(0.5)
        assert areas[1] == pytest.approx(0.5)
        stats = diagram_stats(cells)
        assert [c for _, c in stats.side_counts] == [1, 1]
        assert stats.average_sides == pytest.approx(1.0)
        assert stats.adjacency == ((0, 1),)

    def test_four_corner_cells_meet_at_center(self):
        centers = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        frame = (-0.5, -0.5, 1.5, 1.5)
        cells = compute_cells(centers, np.zeros(4), frame)
        expected0 = {(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)}
        got0 = {(round(x, 12), round(y, 12)) for x, y in cells[0].vertices}
        assert got0 == expected0
        for cell in cells:
            assert polygon_area(cell.vertices) == pytest.approx(1.0)
        stats = diagram_stats(cells)
        assert [c for _, c in stats.side_counts] == [2, 2, 2, 2]
        assert stats.average_sides == pytest.approx(2.0)
        # diagonal pairs meet only at the center point, not an edge
        assert stats.adjacency == ((0, 1), (0, 2), (1, 3), (2, 3))

    def test_heavier_coincident_center_wins(self):
        centers = np.array([[0.5, 0.5], [0.5, 0.5]])
        cells = compute_cells(centers, np.array([0.0, 1.0]), (0, 0, 1, 1))
        assert cells[0].is_empty
        assert polygon_area(cells[1].vertices) == pytest.approx(1.0)

    def test_equal_coincident_centers_tie_break_by_index(self):
        centers = np.array([[0.5, 0.5], [0.5, 0.5]])
        cells = compute_cells(centers, np.zeros(2), (0, 0, 1, 1))
        assert not cells[0].is_empty
        assert cells[1].is_empty

    def test_cells_tile_frame_area(self, rng):
        for k in (2, 3, 7, 12):
            centers, weights = random_diagram(rng, k)
            cells = compute_cells(centers, weights, (0, 0, 1, 1))
            total = sum(polygon_area(c.vertices) for c in cells if not c.is_empty)
            assert total == pytest.approx(1.0, rel=1e-9)

    def test_convexity(self, rng):
        for k in (3, 8, 20):
            centers, weights = random_diagram(rng, k)
            cells = compute_cells(centers, weights, (0, 0, 1, 1))
            for cell in cells:
                if cell.is_empty:
                    continue
                v = cell.vertices
                n = len(v)
                cross = []
                for i in range(n):
                    a = v[(i + 1) % n] - v[i]
                    b = v[(i + 2) % n] - v[(i + 1) % n]
                    cross.append(float(a[0] * b[1] - a[1] * b[0]))
                assert all(c >= -1e-9 for c in cross)  # counterclockwise convex

    def test_adjacency_detection_symmetric(self, rng):
        for k in (3, 6, 15):
            centers, weights = random_diagram(rng, k)
            cells = compute_cells(centers, weights, (0, 0, 1, 1))
            directed = set()
            for cell in cells:
                for lab in cell.edge_sources:
                    if lab >= 0:
                        directed.add((cell.center_index, lab))
            assert directed == {(b, a) for a, b in directed}


class TestWeightShiftInvariance:
    @settings(deadline=None, max_examples=25)
    @given(
        seed=st.integers(0, 10_000),
        k=st.integers(2, 8),
        c=st.floats(-50, 50, allow_nan=False),
    )
    def test_constant_shift_keeps_cells(self, seed, k, c):
        rng = np.random.default_rng(seed)
        centers, weights = random_diagram(rng, k)
        base = compute_cells(centers, weights, (0, 0, 1, 1))
        shifted = compute_cells(centers, weights + c, (0, 0, 1, 1))
        for cb, cs in zip(base, shifted):
            assert cb.is_empty == cs.is_empty
            if not cb.is_empty:
                assert cb.vertices.shape == cs.vertices.shape
                assert float(np.abs(cb.vertices - cs.vertices).max()) <= 1e-9


class TestPointInCell:
    def test_center_in_own_cell(self):
        centers = np.array([[0.2, 0.2], [0.8, 0.8]])
        assert point_in_cell((0.2, 0.2), 0, centers, np.zeros(2), tolerance=0.0)
        assert not point_in_cell((0.2, 0.2), 1, centers, np.zeros(2), tolerance=0.0)

    def test_midpoint_on_boundary_in_both(self):
        centers = np.array([[0.0, 0.0], [1.0, 0.0]])
        mid = (0.5, 0.0)
        assert point_in_cell(mid, 0, centers, np.zeros(2), tolerance=1e-12)
        assert point_in_cell(mid, 1, centers, np.zeros(2), tolerance=1e-12)

    def test_tiling_and_uniqueness(self, rng):
        tol = 1e-9
        for trial in range(5):
            k = int(rng.integers(2, 20))
            centers, weights = random_diagram(rng, k)
            pts = rng.uniform(0, 1, size=(2000, 2))
            power = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2) - weights
            best = power.min(axis=1)
            member_counts = (power <= (best + tol)[:, None]).sum(axis=1)
            assert np.all(member_counts >= 1)
            interior = np.partition(power, 1, axis=1)[:, 1] - best > tol
            assert np.all(member_counts[interior] == 1)
            # spot-check the scalar api agrees with the vectorized condition
            for i in range(0, 2000, 397):
                inside = [
                    x for x in range(k)
                    if point_in_cell(pts[i], x, centers, weights, tolerance=tol)
                ]
                assert inside == [x for x in range(k) if power[i, x] <= best[i] + tol]


class TestDefaultFrame:
    def test_contains_and_pads(self):
        pts = np.array([[0.0, 0.0], [10.0, 4.0]])
        x0, y0, x1, y1 = default_frame(pts)
        assert x0 == pytest.approx(-0.5)
        assert x1 == pytest.approx(10.5)
        assert y0 == pytest.approx(-0.2)
        assert y1 == pytest.approx(4.2)

    def test_pad_below_the_resolution_still_widens(self):
        # 0.05 is lost next to 1e150; each side still moves out by a float
        x0, y0, x1, y1 = default_frame(np.array([[1e150, -1e150]]))
        assert x0 < 1e150 < x1 and y0 < -1e150 < y1

    def test_degenerate_extent(self):
        pts = np.array([[1.0, 2.0], [1.0, 2.0]])
        x0, y0, x1, y1 = default_frame(pts)
        assert x1 > x0 and y1 > y0
        assert x0 < 1.0 < x1 and y0 < 2.0 < y1


class TestDistrictsInsideOwnCells:
    def test_converged_run_blocks_contained(self):
        # every positive-flow block sits in its assigned center's cell: the
        # districts really are intersections with convex polygons
        from districtor.assignment import cost_model_for, ScaledCostPolicy
        from districtor.lloyd import LloydConfig, run
        from tests.conftest import gaussian_instance

        inst = gaussian_instance(seed=77, n=350, m=9000, k=6, clusters=4)
        result = run(inst, LloydConfig(seed=2))
        assert result.trace.converged
        tol = cost_model_for(inst, ScaledCostPolicy()).consistency_tolerance()
        locs = inst.locations()
        for b, c in zip(result.assignment.block_indices, result.assignment.center_indices):
            assert point_in_cell(
                locs[int(b)], int(c), result.centers, result.weights, tolerance=tol
            )
