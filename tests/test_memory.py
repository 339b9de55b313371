"""Working-memory bounds of a solve at the benchmark's statewide size.

tracemalloc sees numpy's array buffers as well as Python objects, so each
peak below is the same on every run. The bounds hold one cost matrix of
100k x 7 int64 (5.3 MiB) plus a fixed allowance: the cost model builds the
matrix in row blocks, the writer converts its rows in chunks, and Lloyd's
iteration keeps only the centers and warm potentials of the last solve.
Measured before those changes: int_costs 16.0 MiB, lloyd.run 21.4 MiB
(4.0 matrices), write_outputs 13.1 MiB.
"""

import tracemalloc

import numpy as np
import pytest

from districtor import dataio, geometry, lloyd
from districtor.assignment import ScaledCostPolicy, cost_model_for
from tests.conftest import gaussian_instance

MIB = 2**20
N, K = 100_000, 7
MATRIX = N * K * 8


def traced_peak(fn, *args):
    """fn(*args) and the peak of the memory it allocated above what was
    allocated when it started, in bytes."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def state():
    return gaussian_instance(1, n=N, m=4_779_736, k=K)


@pytest.fixture(scope="module")
def traced_run(state):
    return traced_peak(lloyd.run, state, lloyd.LloydConfig(seed=6))


def test_int_costs_holds_its_output_plus_a_block(state):
    model = cost_model_for(state, ScaledCostPolicy())
    centers = lloyd.seed_centers(state, K, 6).positions
    costs, peak = traced_peak(model.int_costs, state.locations(), centers)
    assert costs.nbytes == MATRIX
    assert peak <= MATRIX + 2 * MIB


def test_lloyd_run_holds_at_most_three_cost_matrices(traced_run):
    result, peak = traced_run
    assert len(result.trace.iterations) > 2  # the warm solves are in the peak
    assert peak <= 3 * MATRIX


def test_write_outputs_converts_rows_in_chunks(state, traced_run, tmp_path):
    result = traced_run[0]
    frame = geometry.default_frame(state.locations())
    outputs = dataio.SolveOutputs(
        instance=state,
        centers=result.centers,
        assignment=result.assignment,
        weights=np.asarray(result.weights, dtype=np.float64),
        trace=result.trace,
        cells=geometry.compute_cells(result.centers, result.weights, frame),
        scale=ScaledCostPolicy().scale,
        threshold=0.0,
        restarts=1,
        wall_time_seconds=0.0,
    )
    _, peak = traced_peak(dataio.write_outputs, tmp_path, outputs)
    assert peak <= 7 * MIB
