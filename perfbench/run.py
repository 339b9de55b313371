"""districtor benchmark: run a workload, check it, print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload statewide --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, one by one

Each workload runs in a fresh process with BLAS/OpenMP threads pinned to 1;
its peak resident set size is read from the kernel when that process ends.
A worker still running after 130 s plus twice ``--seconds`` (170 s at the
default 20 s) is killed and the run fails.
The metrics, their units and the workloads are those of BENCHMARK.json at
the root of the checkout. The last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when every request of every workload passed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_worker(workload: str, seed: int, seconds: float, trace: int):
    """Run one workload in a child process; returns (result, peak RSS in MB)."""
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    timer = threading.Timer(130.0 + 2.0 * seconds, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out.strip().splitlines()
    for line in lines[:-1]:
        print(f"[{workload}] {line}")
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RuntimeError(f"{workload}: worker exited {proc.returncode} without a result")
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"{workload}: worker exited {proc.returncode}")
    return result, usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def measure(spec: dict, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One workload's result, with exactly the metrics BENCHMARK.json lists."""
    result, rss_mb = run_worker(workload, seed, seconds, trace)
    raw = result["metrics"]
    raw["peak_rss_mb"] = rss_mb
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in raw]
    if missing:
        raise RuntimeError(f"{workload}: no value for {missing}")
    result["metrics"] = {
        m["name"]: {"value": raw[m["name"]], "unit": m["unit"]} for m in wanted
    }
    return result


def report(workload: str, result: dict) -> None:
    attempted, failed = result["attempted"], result["failed"]
    print(f"[{workload}] attempted={attempted} failed={failed} "
          f"fail_ratio={failed / attempted:.4g} correct={result['correct']}")
    for name, m in result["metrics"].items():
        print(f"[{workload}] {name} = {m['value']} {m['unit']}")


def main(argv=None) -> int:
    if not (ROOT / "src" / "districtor" / "__init__.py").is_file():
        print(f"error: no districtor sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=names + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    chosen = names if args.workload == "all" else [args.workload]
    results = {}
    for workload in chosen:
        try:
            results[workload] = measure(spec, workload, args.seed, args.seconds, args.trace)
        except (RuntimeError, OSError, KeyError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        report(workload, results[workload])

    if len(chosen) == 1:
        final = results[chosen[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
