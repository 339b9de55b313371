"""Runs one workload in this process and prints its result as JSON.

Started by ``run.py`` in a fresh process per workload. Imports and input
generation happen before any clock starts; only ``setup_s`` times the
reading and building of the instance.

Untraced (``--trace 0``): setup is repeated and its median reported, then
requests are sent in a closed loop until ``--seconds`` have passed and a
whole cycle of the workload's requests is done (at least one cycle), so
runs of two commits time the same requests.

Traced (``--trace 1``): the same requests are sent twice, first untraced
within half the time budget (whole cycles, at least one) and then traced,
so the tracing overhead is the traced minus the untraced time of identical
work. Spans are kept in memory and written to
``.perfbench/spans-<workload>-s<seed>.jsonl`` at the end.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import SPECS, WORKLOADS  # noqa: E402

OUT_DIR = ROOT / ".perfbench"


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile); the slowest sample when there are ten or fewer."""
    ordered = sorted(latencies)
    n = len(ordered)
    idx = n - 11 if n > 10 else n - 1
    return ordered[idx], 100.0 * (idx + 1) / n


class Runner:
    def __init__(self, workload, tracer: Tracer | None) -> None:
        self.w = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.costs: list[float] = []
        self.counts: list[dict[str, float]] = []

    def _fail(self, what: str, problems: list[str]) -> None:
        self.failed += 1
        for p in problems:
            print(f"FAIL {what}: {p}", file=sys.stderr)

    def setup(self, reps: int) -> list[float]:
        times = []
        for r in range(reps):
            if self.tracer is not None:
                self.tracer.request = -(r + 1)
            self.attempted += 1
            t0 = time.perf_counter()
            inst = self.w.setup()
            times.append(time.perf_counter() - t0)
            if self.tracer is not None:
                self.tracer.request = 0
            problems = self.w.setup_check(inst)
            if problems:
                self._fail(f"setup {r}", problems)
            self.w.inst = inst
        return times

    def one(self, i: int, traced: bool) -> float:
        """Send request i; returns its latency in seconds."""
        arg = self.w.prepare(i)
        self.attempted += 1
        if traced:
            self.tracer.request = i + 1
        t0 = time.perf_counter()
        try:
            result = self.w.request(i, arg)
        except Exception:  # a failed request is counted, the loop goes on
            traceback.print_exc()
            self._fail(f"request {i}", ["raised"])
            return time.perf_counter() - t0
        finally:
            if traced:
                self.tracer.request = 0
        latency = time.perf_counter() - t0
        try:
            outcome = self.w.check(i, result)
        except Exception:
            traceback.print_exc()
            outcome = None
        if outcome is None or outcome.problems:
            self._fail(f"request {i}", outcome.problems if outcome else ["check raised"])
            return latency
        self.costs.append(outcome.cost_per_person)
        self.counts.append(outcome.counts or {})
        return latency

    def loop(self, seconds: float) -> list[float]:
        latencies = []
        cycle = self.w.cycle
        start = time.perf_counter()
        while not latencies or len(latencies) % cycle or time.perf_counter() - start < seconds:
            latencies.append(self.one(len(latencies), traced=False))
        return latencies


def end_to_end(runner: Runner, setup_times, latencies) -> dict[str, float]:
    t, pct = tail(latencies)
    print(f"{len(latencies)} requests; query_tail_ms is their p{pct:.1f}")
    return {
        "setup_s": statistics.median(setup_times),
        "query_p50_ms": 1e3 * statistics.median(latencies),
        "query_tail_ms": 1e3 * t,
        "queries_per_s": len(latencies) / sum(latencies),
        "district_cost": statistics.median(runner.costs) if runner.costs else None,
    }


def per_layer(runner: Runner, tracer: Tracer, n_setup, n_req, untraced, traced):
    """Span totals per setup plus per request, and counts per request,
    computed from the outputs."""
    setup_tot, req_tot = {}, {}
    for span, own in zip(tracer.spans, tracer.self_times()):
        into = setup_tot if span.request < 0 else req_tot
        agg = into.setdefault(span.name, [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += span.end - span.start
        agg[2] += own
    values = {}
    for name in layers.SPAN_NAMES:
        s = setup_tot.get(name, [0, 0.0, 0.0])
        r = req_tot.get(name, [0, 0.0, 0.0])
        values[name + ".calls"] = s[0] / n_setup + r[0] / n_req
        values[name + ".s"] = s[1] / n_setup + r[1] / n_req
        values[name + ".self_s"] = s[2] / n_setup + r[2] / n_req
    values.update(runner.w.static_counts())
    for key in runner.counts[0] if runner.counts else ():
        values[key] = statistics.mean(c[key] for c in runner.counts)
    # every read_blocks call reads one n-row file
    values["dataio.rows_read"] = values["dataio.read_blocks.calls"] * runner.w.spec.n
    values["trace.overhead_s"] = (sum(traced) - sum(untraced)) / n_req
    values["trace.spans"] = len(tracer.spans) / (n_setup + n_req)
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(SPECS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec = SPECS[args.workload]

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{spec.name}-", dir=OUT_DIR) as tmp:
        workload = WORKLOADS[spec.name](spec, args.seed, Path(tmp))
        if not args.trace:
            runner = Runner(workload, None)
            setup_times = runner.setup(spec.setup_reps)
            workload.ready()
            latencies = runner.loop(args.seconds)
            metrics = end_to_end(runner, setup_times, latencies)
        else:
            tracer = Tracer()
            runner = Runner(workload, tracer)
            layers.install(tracer)
            try:
                runner.setup(spec.setup_reps)
            finally:
                tracer.restore()
            workload.ready()
            untraced = runner.loop(args.seconds / 2)
            runner.costs.clear()
            runner.counts.clear()
            layers.install(tracer)
            try:
                traced = [runner.one(i, traced=True) for i in range(len(untraced))]
            finally:
                tracer.restore()
            tracer.dump(OUT_DIR / f"spans-{spec.name}-s{args.seed}.jsonl")
            metrics = per_layer(
                runner, tracer, spec.setup_reps, len(untraced), untraced, traced
            )
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
