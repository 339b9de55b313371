"""Command-line interface: solve, validate, and stats subcommands.

Exit codes are fixed for scripting: 0 success, 1 input or structural error,
2 solve did not converge (outputs are still written), 3 validation checks
failed on an existing result set.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, dataio, flow, geometry, lloyd
from .assignment import AssignmentError, ScaledCostPolicy, cost_model_for
from .assignment import verify_power_consistency  # noqa: F401 (a span of perfbench/layers.py)
from .dataio import DataError, SolveOutputs
from .lloyd import LloydConfig, RunResult, SeedingError
from .model import BalancedAssignment, CenterSet, ModelError, assignment_cost

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_CONVERGED = 2
EXIT_VALIDATION = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="districtor",
        description="Partition a weighted point population into balanced, "
        "compact, convex districts.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run the full pipeline on a block CSV")
    solve.add_argument("--input", required=True, help="block CSV path")
    solve.add_argument("--k", required=True, type=int, help="number of districts")
    solve.add_argument("--seed", required=True, type=int, help="RNG seed for center seeding")
    solve.add_argument("--restarts", type=int, default=1, help="seeded runs; best final cost wins")
    solve.add_argument("--max-iters", type=int, default=lloyd.DEFAULT_MAX_ITERATIONS)
    solve.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="convergence displacement in planar units "
        "(default: 1e-9 of the block bounding-box diagonal)",
    )
    solve.add_argument(
        "--scale",
        type=float,
        default=ScaledCostPolicy().scale,
        help="integer cost units per unit of normalized squared distance",
    )
    solve.add_argument("--lonlat", action="store_true", help="input is lon/lat degrees")
    solve.add_argument("--out", required=True, help="output directory")
    solve.set_defaults(func=cmd_solve)

    validate = sub.add_parser("validate", help="re-verify a written result set")
    validate.add_argument("--dir", required=True, help="result directory")
    validate.set_defaults(func=cmd_validate)

    stats = sub.add_parser("stats", help="print diagram statistics for a result set")
    stats.add_argument("--dir", required=True, help="result directory")
    stats.set_defaults(func=cmd_stats)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return int(args.func(args))


def cmd_solve(args) -> int:
    if args.k < 1 or args.restarts < 1 or args.max_iters < 1:
        print("error: k, restarts and max-iters must be positive", file=sys.stderr)
        return EXIT_INPUT
    try:
        policy = ScaledCostPolicy(scale=args.scale)
        inst = dataio.read_blocks(args.input, k=args.k, lonlat=args.lonlat)
        cost_model_for(inst, policy)  # its domain rule, before any solve
    except (AssignmentError, DataError, ModelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    started = time.perf_counter()
    best: tuple[tuple[int, int], RunResult] | None = None
    try:
        for r in range(args.restarts):
            cfg = LloydConfig(
                seed=args.seed + r,
                max_iterations=args.max_iters,
                threshold=args.threshold,
            )
            result = lloyd.run(inst, cfg, policy)
            key = (result.trace.iterations[-1].cost_scaled, r)
            if best is None or key < best[0]:
                best = (key, result)
    except (SeedingError, ModelError, flow.FlowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    assert best is not None
    result = best[1]
    wall = time.perf_counter() - started

    threshold = lloyd.convergence_threshold(inst, cfg, policy)
    frame = geometry.default_frame(inst.locations())
    cells = geometry.compute_cells(result.centers, result.weights, frame)
    outputs = SolveOutputs(
        instance=inst,
        centers=result.centers,
        assignment=result.assignment,
        weights=np.asarray(result.weights, dtype=np.float64),
        trace=result.trace,
        cells=cells,
        scale=args.scale,
        threshold=threshold,
        restarts=args.restarts,
        wall_time_seconds=wall,
    )
    try:
        dataio.write_outputs(args.out, outputs)
    except OSError as exc:
        print(f"error: cannot write outputs to {args.out}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    last = result.trace.iterations[-1]
    state = "converged" if result.trace.converged else "did not converge"
    print(
        f"{inst.name}: k={inst.k} m={inst.m} seed={result.trace.seed} "
        f"iterations={len(result.trace.iterations)} {state} "
        f"cost={last.cost:.6g} wall={wall:.2f}s"
    )
    return EXIT_OK if result.trace.converged else EXIT_NOT_CONVERGED


class _Report:
    def __init__(self) -> None:
        self.failures = 0

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        tag = "PASS" if ok else "FAIL"
        suffix = f": {detail}" if detail else ""
        print(f"{tag} {name}{suffix}")
        if not ok:
            self.failures += 1
        return ok


# A result set is outside input: a malformed file or summary field ends in a
# clean exit 1. DataError, ModelError and AssignmentError are ValueErrors;
# OverflowError comes from a summary integer beyond int64 or the float range;
# TypeError is kept for a JSON value of a type no check foresaw.
_INPUT_ERRORS = (ValueError, TypeError, OverflowError, OSError)


def _load_diagram(out_dir: Path):
    """The summary, blocks, centers and weights of a result set, the
    per-center populations that centers.csv reports, and the cost model of
    its scale, which solve would accept. The summary fields that validate
    and stats read must be present, each of its JSON type."""
    summary = dataio.read_summary_json(out_dir / "summary.json")
    for keys, types, kind in (
        (("k", "m", "final_cost_scaled"), (int,), "an integer"),
        (("scale", "threshold", "final_cost"), (int, float), "a number"),
        (("converged",), (bool,), "true or false"),
    ):
        for key in keys:
            if key not in summary:
                raise DataError(f"summary.json: missing key {key!r}")
            if type(summary[key]) not in types:  # not isinstance: a bool is an int
                raise DataError(f"summary.json: {key} {summary[key]!r} is not {kind}")
    inst = dataio.read_blocks(out_dir / "blocks.csv", k=summary["k"])
    model = cost_model_for(inst, ScaledCostPolicy(scale=float(summary["scale"])))
    positions, weights, capacities, populations = dataio.read_centers_csv(out_dir / "centers.csv")
    centers = CenterSet(positions=positions, capacities=capacities)
    return summary, inst, centers, weights, populations, model


def _cell_mismatch(entry: dict, cell: geometry.ConvexCell, weight: float) -> str:
    """The first field of a cells.json entry that disagrees with the
    recomputed cell, or with the centers.csv weight of its center; "" when
    none does. The cells are plain float arithmetic on the written centers
    and weights, so the rings must be equal exactly."""
    if entry["ring"] != cell.ring():
        return "ring"
    center = entry.get("center")
    if type(center) is not int or center != cell.center_index:
        return "center"
    if entry.get("clipped") is not cell.clipped:
        return "clipped"
    if type(entry.get("weight")) not in (int, float) or entry["weight"] != weight:
        return "weight"
    return ""


def _block_indices(inst, asg_ids: list[str]) -> np.ndarray | None:
    """The block index of each assignment.csv row, or None when the rows
    are not in the order ``write_outputs`` writes them: grouped by block,
    in blocks.csv order, with no rows for a block of zero population."""
    ids = np.array(asg_ids, dtype=object)
    first = np.ones(len(ids), dtype=bool)  # the first row of each block
    first[1:] = ids[1:] != ids[:-1]
    starts = np.flatnonzero(first)
    populated = np.flatnonzero(inst.populations() > 0)
    if len(starts) != len(populated) or not np.array_equal(
        ids[starts], np.array(inst.ids, dtype=object)[populated]
    ):
        return None
    return np.repeat(populated, np.diff(starts, append=len(ids)))


def _trace_mismatch(
    trace_rows: list, summary: dict, units_per_cost: float, threshold: float
) -> str:
    """The first way trace.csv disagrees with the run it records, "" when
    none does: the iterations number 0..n-1 with n the summary's integer
    count; each cost is its scaled cost in original units, as ``lloyd.run``
    computes it, and the last is final_cost_scaled; each displacement is
    finite and nonnegative; and the last is within threshold exactly when
    the run converged, since ``lloyd.run`` stops at the first such one."""
    n = len(trace_rows)
    if [row[0] for row in trace_rows] != list(range(n)):
        return "the iterations are not numbered 0, 1, ... in order"
    iterations = summary.get("iterations")
    if type(iterations) is not int or iterations != n:
        return f"{n} rows, but summary.json counts {iterations!r} iterations"
    for it, cost, cost_scaled, disp in trace_rows:
        # the scaled costs are int64 objectives; the range test also keeps
        # the product from overflowing
        if not -(2**63) <= cost_scaled < 2**63 or cost != cost_scaled * units_per_cost:
            return f"iteration {it}: cost {cost!r} is not cost_scaled x {units_per_cost!r}"
        if not (math.isfinite(disp) and disp >= 0.0):
            return f"iteration {it}: max_displacement {disp!r}"
    if trace_rows and trace_rows[-1][2] != summary["final_cost_scaled"]:
        return f"the last cost_scaled is not final_cost_scaled {summary['final_cost_scaled']!r}"
    if trace_rows and summary["converged"] != (trace_rows[-1][3] <= threshold):
        if summary["converged"]:
            return f"converged, but the last displacement exceeds the threshold {threshold!r}"
        return f"not converged, but the last displacement is within the threshold {threshold!r}"
    return ""


def _certificate_failure(inst, centers, asg, weights, model, objective: int) -> str:
    """Why ``flow.certify`` rejects the result set, "" when it accepts it. The
    demand potentials are the weights in cost units, as ``solve_balanced``
    writes them, within the solver's bound of 2**61 on warm potentials."""
    unit = model.units_per_cost
    with np.errstate(all="ignore"):  # NaN and inf from a degenerate unit fail the test
        v = np.rint(weights / unit)
        if not (np.all(np.abs(v) <= 2.0**61) and np.array_equal(v * unit, weights)):
            return "a weight is not a whole number of cost units of magnitude at most 2**61"
    v = v.astype(np.int64)
    try:
        costs = model.int_costs(inst.locations(), centers.positions)
        u = flow.supply_potentials(costs, v)
        sol = flow.FlowSolution(asg.block_indices, asg.center_indices, asg.persons, u, v, objective)
        flow.certify(flow.TransshipmentInstance(costs, inst.populations(), centers.capacities), sol)
    except flow.FlowError as exc:
        return str(exc)
    return ""


def cmd_validate(args) -> int:
    out_dir = Path(args.dir)
    try:
        summary, inst, centers, weights, populations, model = _load_diagram(out_dir)
        k = inst.k
        threshold = float(summary["threshold"])
        final_cost = float(summary["final_cost"])
        objective = summary["final_cost_scaled"]
        asg_ids, asg_centers, asg_persons = dataio.read_assignment_columns(
            out_dir / "assignment.csv"
        )
        trace_rows = dataio.read_trace_csv(out_dir / "trace.csv")
        cells_payload = dataio.read_cells_json(out_dir / "cells.json")
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    report = _Report()

    block_indices = _block_indices(inst, asg_ids)
    structural = report.check(
        "result-set structure",
        centers.k == k
        and summary["m"] == inst.m
        and bool(np.all(asg_persons > 0))
        and bool(np.all((asg_centers >= 0) & (asg_centers < k)))
        and block_indices is not None,
        f"k={k}, {len(asg_ids)} assignment rows",
    )
    if not structural:
        print("validation failed")
        return EXIT_VALIDATION

    asg = BalancedAssignment(
        block_indices=block_indices, center_indices=asg_centers, persons=asg_persons
    )
    # asg holds copies of the file's columns; the ids, a str per row, are
    # read only for the row order
    del asg_ids, asg_centers, asg_persons
    failure = _certificate_failure(inst, centers, asg, weights, model, objective)
    certified = report.check(
        "optimality certificate (exact)", not failure, failure or f"objective {objective}"
    )
    totals = asg.per_center_population(k)
    report.check(
        "per-center populations in centers.csv",
        bool(np.array_equal(totals, populations)),
    )

    if summary["converged"]:
        centroids = asg.centroids(inst, totals)
        # The centroid sums round too, by about a float of the largest
        # coordinate per entry; for blocks far from the origin for their
        # spread, that exceeds the rounding of the costs.
        rounding = 4.0 * (len(asg.persons) + 1) * float(
            np.spacing(np.abs(inst.locations()).max())
        )
        centroid_tol = max(threshold, 2.0 * model.diameter / math.sqrt(model.scale), rounding)
        drift = np.sqrt(((centroids - centers.positions) ** 2).sum(axis=1))
        report.check(
            "centroid condition",
            bool(np.all(drift <= centroid_tol)),
            f"max drift {float(drift.max()):.3g} vs tolerance {centroid_tol:.3g}",
        )
    else:
        # the run stopped at its iteration cap, before the last centroid move
        report.check("centroid condition", True, "not checked: the run did not converge")

    frame = geometry.default_frame(inst.locations())
    cells = geometry.compute_cells(centers, weights, frame)
    stats = geometry.diagram_stats(cells)
    report.check(
        "average internal sides < 6",
        stats.average_sides < 6.0,
        f"average {stats.average_sides:.3f} over {stats.nonempty_cells} cells",
    )

    mismatch = ""
    if len(cells_payload) != len(cells):
        mismatch = f"{len(cells_payload)} entries for {len(cells)} cells"
    else:
        for i, (entry, cell) in enumerate(zip(cells_payload, cells)):
            field = _cell_mismatch(entry, cell, float(weights[cell.center_index]))
            if field:
                mismatch = f"entry {i}: {field} differs"
                break
    report.check("cells.json matches recomputed diagram", not mismatch, mismatch)

    recomputed = assignment_cost(inst, centers, asg) if certified else float("nan")
    report.check(
        "final cost reproducible",
        recomputed == final_cost,
        f"recomputed {recomputed!r}, summary {final_cost!r}",
    )

    scaled = [c for _, _, c, _ in trace_rows]
    monotone = all(b <= a for a, b in zip(scaled, scaled[1:]))
    report.check("trace cost nonincreasing (scaled ints)", monotone and len(scaled) >= 1)
    trace_mismatch = _trace_mismatch(trace_rows, summary, model.units_per_cost, threshold)
    report.check("trace.csv matches the run", not trace_mismatch, trace_mismatch)

    if report.failures:
        print("validation failed")
        return EXIT_VALIDATION
    print("validation passed")
    return EXIT_OK


def cmd_stats(args) -> int:
    out_dir = Path(args.dir)
    try:
        summary, inst, centers, weights, *_ = _load_diagram(out_dir)
        final_cost = float(summary["final_cost"])
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    frame = geometry.default_frame(inst.locations())
    stats = geometry.diagram_stats(geometry.compute_cells(centers, weights, frame))
    print(
        f"{summary.get('instance', out_dir.name)} "
        f"k={summary['k']} m={summary['m']} iterations={summary.get('iterations')}"
    )
    print(
        f"converged={str(bool(summary.get('converged'))).lower()} "
        f"final_cost={final_cost:.6g}"
    )
    print(
        f"nonempty cells: {stats.nonempty_cells}, average internal sides: "
        f"{stats.average_sides:.3f}, adjacency pairs: {len(stats.adjacency)}"
    )
    sides = " ".join(f"{idx}:{count}" for idx, count in stats.side_counts)
    print(f"sides per cell: {sides}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
