"""The benchmark's workloads: a seeded input, a timed setup and a closed
loop of requests, each request checked after it is timed.

Every workload is one client in one process, single-threaded: the next
request is sent only when the previous one has returned. A request is what
a user waits for:

- ``statewide``: ``districtor solve --lonlat`` then ``districtor validate``
  through ``cli.main`` on a 100,000-block state, k = 7.
- ``many_districts``: ``lloyd.run`` then ``compute_cells`` on 1,000
  blocks, k = 53.
- ``cold_queries``: a what-if on 5,000 blocks, k = 7: one center of a
  starting plan moves and the plan is solved with no warm potentials, then
  its cells are built.

All three load one fixed state (``gen.STATE_SEED``). The two Lloyd
workloads also fix the center seed, so every request is the same solve:
on one state, the run time of ``lloyd.run`` ranged from 6 s to 24 s over
center seeds 1 to 6 (100,000 blocks) and from 10 s to 15 s over seeds 1
to 5 (1,000 blocks, k = 53), while one seed repeated within 5%. The seed
of the benchmark draws the what-if traffic of ``cold_queries``.
"""

from __future__ import annotations

import contextlib
import io
import re
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from districtor import assignment, cli, dataio, geometry, lloyd
from districtor.assignment import cost_model_for as _cost_model_for
from districtor.assignment import verify_power_consistency as _verify_power_consistency
from districtor.dataio import read_assignment_csv as _read_assignment_csv
from districtor.dataio import read_summary_json as _read_summary_json
from districtor.model import CenterSet, assignment_cost, balanced_capacities

import gen

# The checks call the underscored originals, bound at import, so a traced
# run does not count the benchmark's own checking as work of the layers.

SECTORS = 6  # directions a what-if moves a center in, one per 60 degrees


@dataclass(frozen=True)
class Spec:
    name: str
    n: int  # blocks
    m: int  # persons
    k: int  # districts
    lonlat: bool
    # read_blocks repetitions, about 1.5 s of them at least: setup_s is their
    # median, and medians of a few milliseconds jumped by half between runs
    setup_reps: int
    # center seed of the Lloyd workloads: of the seeds tried (see the module
    # docstring), the one whose run time was nearest the median
    center_seed: int = 0
    # how far a what-if moves one center. Lloyd runs on the cold_queries
    # state (center seeds 1-3) moved their farthest-moving center by a
    # median of 1.3 to 2.1 km per iteration, 76 to 152 km in the first
    move_km: float = 0.0


SPECS = {
    s.name: s
    for s in (
        Spec("statewide", 100_000, 4_779_736, 7, True, 5, center_seed=6),
        Spec("many_districts", 1_000, 30_000, 53, False, 201, center_seed=3),
        Spec("cold_queries", 5_000, 150_000, 7, False, 41, move_km=3.0),
    )
}


@dataclass
class Outcome:
    """What the checks of one request found, and the counts computed from
    its outputs."""

    problems: list[str]
    cost_per_person: float = float("nan")
    counts: dict[str, float] | None = None


def _split_blocks(block_indices: np.ndarray) -> int:
    _, per_block = np.unique(block_indices, return_counts=True)
    return int(np.count_nonzero(per_block > 1))


def _check_balance(problems: list[str], totals: np.ndarray, m: int, k: int) -> None:
    """Exact balance, computed here rather than by the package under test:
    k - r centers of floor(m / k) persons and r of one more."""
    q, r = divmod(m, k)
    if sorted(totals.tolist()) != [q] * (k - r) + [q + 1] * r:
        problems.append(f"per-center totals {totals.tolist()} are not balanced")


class Workload:
    """Writes the input; subclasses answer and check requests."""

    cycle = 1  # requests are sent in whole cycles of this many

    def __init__(self, spec: Spec, seed: int, work_dir: Path) -> None:
        self.spec = spec
        self.seed = seed
        self.work_dir = work_dir
        self.csv = work_dir / "blocks.csv"
        self.pops = gen.write_blocks(self.csv, gen.STATE_SEED, spec.n, spec.m, spec.lonlat)
        self.inst = None

    def setup(self):
        """Read and build the instance; timed as setup_s."""
        inst = dataio.read_blocks(self.csv, k=self.spec.k, lonlat=self.spec.lonlat)
        inst.locations()
        inst.populations()
        return inst

    def setup_check(self, inst) -> list[str]:
        if inst.n_blocks != self.spec.n or not np.array_equal(inst.populations(), self.pops):
            return ["read_blocks did not return the generated blocks"]
        return []

    def ready(self) -> None:
        """Untimed work after setup, before the first request."""

    def prepare(self, i: int):
        """Untimed input of request i; passed to ``request``."""
        return None

    def request(self, i: int, arg):
        raise NotImplementedError

    def check(self, i: int, result) -> Outcome:
        raise NotImplementedError

    def static_counts(self) -> dict[str, float]:
        """Per-layer counts fixed by the instance size, and zeros for counts
        that only some workloads' outputs give."""
        return {
            "assignment.cost_matrix_bytes": self.spec.n * self.spec.k * 8,
            "dataio.bytes_written": 0,
            "lloyd.iterations": 0,
        }


class InProcess(Workload):
    """A workload whose requests return an assignment, weights and cells in
    this process; they are checked the same way."""

    def ready(self) -> None:
        inst = self.inst
        self.frame = geometry.default_frame(inst.locations())
        policy = assignment.ScaledCostPolicy()
        self.tolerance = _cost_model_for(inst, policy).consistency_tolerance()

    def check_plan(self, centers: CenterSet, asg, weights, diagram) -> Outcome:
        inst = self.inst
        problems: list[str] = []
        _check_balance(problems, asg.per_center_population(inst.k), inst.m, inst.k)
        if not np.array_equal(asg.per_block_assigned(inst.n_blocks), inst.populations()):
            problems.append("block populations are not conserved")
        report = _verify_power_consistency(inst, centers, asg, weights, self.tolerance)
        if not report.ok:
            problems.append(str(report))
        cells, stats = diagram
        if len(cells) != inst.k or not stats.average_sides < 6.0:
            problems.append(
                f"{len(cells)} cells for {inst.k} centers, "
                f"average internal sides {stats.average_sides}"
            )
        counts = {
            "geometry.cells_nonempty": stats.nonempty_cells,
            "geometry.avg_sides": stats.average_sides,
            "flow.entries": len(asg.persons),
            "flow.split_blocks": _split_blocks(asg.block_indices),
        }
        return Outcome(problems, assignment_cost(inst, centers, asg) / inst.m, counts)


class ManyDistricts(InProcess):
    """Each request runs Lloyd's iteration to convergence from the same
    center seed and builds the cells of the result."""

    def request(self, i: int, arg):
        run = lloyd.run(self.inst, lloyd.LloydConfig(seed=self.spec.center_seed))
        cells = geometry.compute_cells(run.centers, run.weights, self.frame)
        return run, (cells, geometry.diagram_stats(cells))

    def check(self, i: int, result) -> Outcome:
        run, cells = result
        outcome = self.check_plan(run.centers, run.assignment, run.weights, cells)
        scaled = [it.cost_scaled for it in run.trace.iterations]
        if not run.trace.converged:
            outcome.problems.append(f"did not converge in {len(scaled)} iterations")
        if any(b > a for a, b in zip(scaled, scaled[1:])):
            outcome.problems.append("scaled cost trace increased")
        outcome.counts["lloyd.iterations"] = len(scaled)
        return outcome


class ColdQueries(InProcess):
    """A planner's what-if on one loaded state: one center of a balanced
    starting plan (see gen.plan) moves and the plan is solved again from
    scratch. The seed turns the directions of the moves."""

    @property
    def cycle(self) -> int:
        return self.spec.k * SECTORS  # every center moved in every direction once

    def ready(self) -> None:
        super().ready()
        inst = self.inst
        self.base = gen.plan(inst.locations(), inst.populations(), inst.k)
        self.capacities = balanced_capacities(inst.m, inst.k)
        self.turn = np.random.default_rng(self.seed).uniform()

    def prepare(self, i: int) -> CenterSet:
        """Request i moves center i mod k by move_km in direction
        (i // k) mod SECTORS, all directions turned by one seeded angle.
        Runs send whole cycles of these, so two runs time the same mix."""
        sector = (i // self.spec.k) % SECTORS
        angle = 2.0 * np.pi * (sector + self.turn) / SECTORS
        positions = self.base.copy()
        positions[i % self.spec.k] += self.spec.move_km * np.array([np.cos(angle), np.sin(angle)])
        return CenterSet(positions=positions, capacities=self.capacities)

    def request(self, i: int, centers: CenterSet):
        res = assignment.solve_balanced(self.inst, centers)
        cells = geometry.compute_cells(centers, res.weights, self.frame)
        return centers, res, (cells, geometry.diagram_stats(cells))

    def check(self, i: int, result) -> Outcome:
        centers, res, cells = result
        return self.check_plan(centers, res.assignment, res.weights, cells)


class Statewide(Workload):
    """Each request districts the state through the command line: ``solve``
    from the same center seed, then ``validate`` of what it wrote."""

    SIDES = re.compile(r"^PASS average internal sides < 6: average (\S+) over (\d+) cells$", re.M)

    def prepare(self, i: int) -> Path:
        return self.work_dir / f"out{i}"

    def request(self, i: int, out: Path):
        solve = [
            "solve", "--input", str(self.csv), "--k", str(self.spec.k), "--lonlat",
            "--seed", str(self.spec.center_seed), "--out", str(out),
        ]
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            solved = cli.main(solve)
            validated = cli.main(["validate", "--dir", str(out)])
        return solved, validated, out, text.getvalue()

    def check(self, i: int, result) -> Outcome:
        """``validate`` exiting 0 has checked conservation, power consistency,
        the cells and the trace; this adds balance against the capacities
        computed here, and takes the counts from the outputs."""
        solved, validated, out, text = result
        problems = []
        if solved != cli.EXIT_OK:
            problems.append(f"solve exited {solved} (2: it did not converge)")
        if validated != cli.EXIT_OK:
            failed = [ln for ln in text.splitlines() if ln.startswith("FAIL")]
            problems.append(f"validate exited {validated}: {failed}")
        sides = self.SIDES.search(text)
        if problems or sides is None:
            return Outcome(problems or ["validate printed no cell statistics"])
        k = self.spec.k
        rows = _read_assignment_csv(out / "assignment.csv")
        centers = np.array([c for _, c, _ in rows], dtype=np.int64)
        persons = np.array([p for _, _, p in rows], dtype=np.int64)
        totals = np.bincount(centers, weights=persons, minlength=k).astype(np.int64)
        _check_balance(problems, totals, self.spec.m, k)
        summary = _read_summary_json(out / "summary.json")
        counts = {
            "geometry.avg_sides": float(sides.group(1)),
            "geometry.cells_nonempty": int(sides.group(2)),
            "flow.entries": len(rows),
            "flow.split_blocks": _split_blocks(np.array([bid for bid, _, _ in rows])),
            "lloyd.iterations": int(summary["iterations"]),
            "dataio.bytes_written": sum(
                p.stat().st_size for p in out.rglob("*") if p.is_file()
            ),
        }
        shutil.rmtree(out)
        return Outcome(problems, float(summary["final_cost"]) / self.spec.m, counts)


WORKLOADS = {
    "statewide": Statewide,
    "many_districts": ManyDistricts,
    "cold_queries": ColdQueries,
}
