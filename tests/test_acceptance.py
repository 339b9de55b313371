"""Acceptance gate: one test per criterion, each printing a pass/fail line.

The corpus and spread fixtures are session-scoped because several criteria
share the same converged runs.
"""

import time

import numpy as np
import pytest

from districtor import geometry
from districtor.assignment import (
    ScaledCostPolicy,
    cost_model_for,
    solve_balanced,
    verify_power_consistency,
)
from districtor.cli import EXIT_OK, main
from districtor.lloyd import LloydConfig, run
from districtor.model import assignment_cost, balanced_capacities
from tests.conftest import (
    gaussian_instance,
    hexagon_instance,
    random_small_instance,
    uniform_instance,
)
from tests.oracle import brute_force_balanced, point_in_cell, swap_heuristic

POLICY = ScaledCostPolicy()


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="session")
def corpus_results():
    """Converged runs across instance scales, k up to 53, 1e5 blocks, and
    millions of persons. Elapsed wall time is recorded per run."""
    entries = [
        ("two_gauss", gaussian_instance(seed=100, n=500, m=20_000, k=2, clusters=2, name="two_gauss"), 500),
        ("gauss_five", gaussian_instance(seed=103, n=2_000, m=60_000, k=5, clusters=4, name="gauss_five"), 500),
        ("uniform_twelve", uniform_instance(seed=104, n=3_000, m=90_000, k=12, name="uniform_twelve"), 500),
        ("wide_k", gaussian_instance(seed=101, n=5_000, m=150_000, k=53, clusters=9, name="wide_k"), 500),
        ("big", gaussian_instance(seed=102, n=100_000, m=1_000_000, k=11, clusters=10, name="big"), 500),
        ("alabama_synth", gaussian_instance(seed=1776, n=100_000, m=4_779_736, k=7, clusters=10, name="alabama_synth"), 200),
    ]
    results = []
    for name, inst, max_iters in entries:
        started = time.perf_counter()
        result = run(inst, LloydConfig(seed=0, max_iterations=max_iters), POLICY)
        elapsed = time.perf_counter() - started
        results.append((name, inst, result, elapsed))
    return results


@pytest.fixture(scope="session")
def spread_runs():
    """50 converged runs with k ranging over {3, ..., 53}."""
    runs = []
    for k in (3, 5, 8, 12, 17, 23, 30, 38, 46, 53):
        for seed in range(5):
            inst = gaussian_instance(
                seed=1000 + 13 * k + seed, n=400, m=12_000, k=k, clusters=5,
                name=f"spread_k{k}_s{seed}",
            )
            runs.append((inst, run(inst, LloydConfig(seed=seed, max_iterations=500), POLICY)))
    return runs


def test_criterion_1_oracle_equivalence():
    """Solver cost equals exhaustive enumeration on 500 tiny instances."""
    rng = np.random.default_rng(8191)
    started = time.perf_counter()
    worst = 0.0
    for t in range(500):
        inst, centers = random_small_instance(rng, max_persons=8, max_k=3)
        res = solve_balanced(inst, centers, POLICY)
        got = assignment_cost(inst, centers, res.assignment)
        _, best = brute_force_balanced(inst, centers)
        scale_ref = max(best, inst.m * res.cost_model.units_per_cost)
        gap = abs(got - best) / scale_ref if scale_ref else 0.0
        worst = max(worst, gap)
        assert got == pytest.approx(
            best, rel=1e-6, abs=inst.m * res.cost_model.units_per_cost
        ), f"instance {t}: solver {got} vs oracle {best}"
    elapsed = time.perf_counter() - started
    report(
        "1 oracle equivalence",
        elapsed < 60.0,
        f"500 instances, worst relative gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_hexagon_regression():
    """The swap heuristic stalls on the long matching; the solver does not."""
    started = time.perf_counter()
    inst, centers, rpos = hexagon_instance(eps=0.01)
    short = [0, 1, 2]
    long = [1, 2, 0]  # resident i -> center (i + 1) mod 3, keyed by resident

    def cost_of(matching):
        return sum(
            float(np.sum((rpos[i] - centers.positions[x]) ** 2))
            for i, x in enumerate(matching)
        )

    res = solve_balanced(inst, centers, POLICY)
    solver_matching = [0, 0, 0]
    for b, c in zip(res.assignment.block_indices, res.assignment.center_indices):
        solver_matching[int(b)] = int(c)

    stalled = swap_heuristic(rpos, centers.positions, list(long))
    elapsed = time.perf_counter() - started
    ok = (
        solver_matching == short
        and cost_of(long) > cost_of(short)
        and stalled == long
        and elapsed < 1.0
    )
    report(
        "2 hexagon regression",
        ok,
        f"solver found the short matching, long costs {cost_of(long):.6f} vs "
        f"{cost_of(short):.6f}, swap heuristic stalled, {elapsed * 1000:.0f}ms",
    )


def test_criterion_3_balance_exact(corpus_results, spread_runs):
    """Per-center populations equal the balanced capacities, zero tolerance."""
    checked = 0
    for name, inst, result, _ in corpus_results:
        assert result.trace.converged, f"{name} did not converge"
        pops = result.assignment.per_center_population(inst.k)
        caps = balanced_capacities(inst.m, inst.k)
        assert np.array_equal(pops, caps), name
        assert np.array_equal(pops, result.centers.capacities), name
        checked += 1
    for inst, result in spread_runs:
        assert result.trace.converged, inst.name
        pops = result.assignment.per_center_population(inst.k)
        assert np.array_equal(pops, balanced_capacities(inst.m, inst.k)), inst.name
        checked += 1
    report("3 exact balance", True, f"{checked} converged runs, integer equality")


def test_criterion_4_power_consistency(corpus_results):
    """Zero violations at the rounding tolerance; any +10 diameter^2 weight
    perturbation breaks consistency when k >= 2."""
    pairs = 0
    for name, inst, result, _ in corpus_results:
        model = cost_model_for(inst, POLICY)
        tol = model.consistency_tolerance()
        reportobj = verify_power_consistency(
            inst, result.centers, result.assignment, result.weights, tolerance=tol
        )
        assert reportobj.ok, f"{name}: {len(reportobj.violations)} violations"
        pairs += reportobj.pairs_checked

        bump = 10.0 * model.diameter * model.diameter
        for x in range(inst.k):
            perturbed = np.array(result.weights, dtype=np.float64)
            perturbed[x] += bump
            broken = verify_power_consistency(
                inst, result.centers, result.assignment, perturbed, tolerance=tol
            )
            assert not broken.ok, f"{name}: weight {x} perturbation undetected"
    report(
        "4 power consistency",
        True,
        f"{pairs} positive-flow pairs clean; every weight perturbation detected",
    )


def test_criterion_5_cost_monotonicity(corpus_results, spread_runs):
    """Scaled integer cost sequences never increase, zero exceptions."""
    traces = 0
    steps = 0
    for name, _, result, _ in corpus_results:
        costs = [r.cost_scaled for r in result.trace.iterations]
        for a, b in zip(costs, costs[1:]):
            assert b <= a, f"{name}: {a} -> {b}"
            steps += 1
        traces += 1
    for inst, result in spread_runs:
        costs = [r.cost_scaled for r in result.trace.iterations]
        for a, b in zip(costs, costs[1:]):
            assert b <= a, f"{inst.name}: {a} -> {b}"
            steps += 1
        traces += 1
    report("5 cost monotonicity", True, f"{traces} traces, {steps} steps, 0 increases")


def test_criterion_6_average_sides(spread_runs):
    """Average internal side count stays below six on 50 converged runs."""
    worst = 0.0
    for inst, result in spread_runs:
        assert result.trace.converged, inst.name
        frame = geometry.default_frame(inst.locations())
        cells = geometry.compute_cells(result.centers, result.weights, frame)
        stats = geometry.diagram_stats(cells)
        worst = max(worst, stats.average_sides)
        assert stats.average_sides < 6.0, f"{inst.name}: {stats.average_sides}"
    report("6 average sides < 6", True, f"50 runs, worst average {worst:.3f}")


def test_criterion_7_state_scale_run(corpus_results):
    """The 1e5-block, 4.78M-person, k=7 instance converges within 200
    iterations and 15 minutes."""
    entry = next(e for e in corpus_results if e[0] == "alabama_synth")
    _, inst, result, elapsed = entry
    iters = len(result.trace.iterations)
    ok = result.trace.converged and iters <= 200 and elapsed < 900.0
    report(
        "7 state-scale run",
        ok,
        f"n={inst.n_blocks}, m={inst.m}, k={inst.k}: converged in {iters} "
        f"iterations, {elapsed:.1f}s (budget 900s)",
    )


def test_criterion_8_determinism(tmp_path):
    """Identical invocations produce byte-identical CSV artifacts."""
    inst = gaussian_instance(seed=100, n=500, m=20_000, k=4, clusters=3, name="det")
    blocks = tmp_path / "blocks.csv"
    lines = ["block_id,x,y,population"]
    for bid, (x, y), pop in zip(
        inst.ids, inst.locations().tolist(), inst.populations().tolist()
    ):
        lines.append(f"{bid},{x!r},{y!r},{pop}")
    blocks.write_text("\n".join(lines) + "\n", encoding="utf-8")

    args = ["--input", str(blocks), "--k", "4", "--seed", "11", "--restarts", "2"]
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["solve", *args, "--out", str(out_a)]) == EXIT_OK
    assert main(["solve", *args, "--out", str(out_b)]) == EXIT_OK
    identical = []
    for fname in ("assignment.csv", "centers.csv", "trace.csv"):
        same = (out_a / fname).read_bytes() == (out_b / fname).read_bytes()
        identical.append((fname, same))
        assert same, f"{fname} differs between runs"
    report(
        "8 determinism",
        True,
        "assignment.csv, centers.csv, trace.csv byte-identical across reruns",
    )


def test_criterion_9_geometry_tiling():
    """Every sampled frame point lies in at least one cell."""
    rng = np.random.default_rng(424242)
    tol = 1e-9
    diagrams = 0
    for trial in range(20):
        k = int(rng.integers(2, 54))
        centers = rng.uniform(0.0, 1.0, size=(k, 2))
        weights = rng.uniform(0.0, 0.05, size=k)
        pts = rng.uniform(0.0, 1.0, size=(10_000, 2))
        power = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2) - weights
        best = power.min(axis=1)
        membership = (power <= (best + tol)[:, None]).sum(axis=1)
        assert int(membership.min()) >= 1, f"diagram {trial}"
        # the scalar api agrees on a sample of points
        for i in range(0, 10_000, 1999):
            covered = any(
                point_in_cell(pts[i], x, centers, weights, tolerance=tol)
                for x in range(k)
            )
            assert covered
        diagrams += 1
    report("9 geometry tiling", True, f"{diagrams} diagrams x 10000 points covered")
