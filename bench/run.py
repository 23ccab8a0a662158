"""The rankloss benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): sweep, certify-wide, tim-exclusive, readme.
Every measurement runs in a fresh interpreter (worker.py) that imports
rankloss from this checkout's src/, makes its inputs from the seed, and
then runs a fixed number of whole passes of jobs, one at a time: as many
as take about --seconds at the seed commit.  The same seed and --seconds
always give the same jobs.  Every job's output is checked; a job that
raises, exits nonzero or fails its check is a failed job.  "correct" is
false when a job fails in any way other than the known defect
BENCHMARK.json records for tim-exclusive (workloads.KnownDefect).

The machine may be shared, and its speed can change by tens of percent
within a second.  Workers time a fixed loop every 25 ms (speed.py), keep
it off their clock, and scale each job's time, and the set-up time, by
the loop's median time while it ran; the detail line keeps the unscaled
figures.  jobs_per_s is jobs over the summed (scaled) job times.

--trace 0 prints the end-to-end metrics.  Set-up is measured in
SETUP_SAMPLES processes and reported as their median.
--trace 1 runs the workload for half the time untraced and half traced,
prints the per-layer metrics of the traced half, and the tracing overhead
(the share of jobs_per_s the tracing costs).  Spans go to
.bench_run/spans-<workload>-<seed>.json.

The line before the last holds the details: environment, input digest, job
counts, failures and, when traced, every span name with its parents.  The
last line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from worker import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS, CRITERION2_SEED  # noqa: E402

SETUP_SAMPLES = 5
RUN_TIMEOUT_S = 170.0


class BenchError(Exception):
    pass


def environment(args) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},  # this checkout only
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "git_sha": sha,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
    }


def worker(args, seconds: float, trace: bool, setup_only: bool, deadline: float) -> dict:
    """Run worker.py once; return its result with set-up time measured from process start."""
    cmd = [
        sys.executable,
        str(BENCH_DIR / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(seconds),
        "--trace", "1" if trace else "0",
    ]
    if setup_only:
        cmd.append("--setup-only")
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker exceeded the {RUN_TIMEOUT_S:.0f} s budget")
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_raw_s"] = result.pop("ready") - started - result.pop("setup_lost_s")
    result["setup_s"] = result["setup_raw_s"] * result.pop("setup_scale")
    return result


def end_to_end(args, deadline: float) -> tuple[dict, dict]:
    runs = [worker(args, args.seconds, False, True, deadline) for _ in range(SETUP_SAMPLES - 1)]
    main = worker(args, args.seconds, False, False, deadline)
    runs.append(main)
    metrics = {
        "jobs_per_s": (main["jobs_per_s"], "1/s"),
        "job_p50_ms": (main["job_p50_ms"], "ms"),
        "job_tail_ms": (main["job_tail_ms"], "ms"),
        "setup_s": (statistics.median(run["setup_s"] for run in runs), "s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
    }
    main["setup_raw_s"] = [run["setup_raw_s"] for run in runs]
    main["setup_s"] = [run["setup_s"] for run in runs]
    return main, metrics


def traced(args, deadline: float) -> tuple[dict, dict]:
    half = args.seconds / 2
    plain = worker(args, half, False, False, deadline)
    main = worker(args, half, True, False, deadline)
    overhead = 1 - main["jobs_per_s"] / plain["jobs_per_s"]
    metrics = {
        name: (main["layer_metrics"][name] * (main["run_scale"] if unit == "s/job" else 1), unit)
        for name, unit in LAYER_METRICS
    }
    metrics["tracing.overhead"] = (overhead, "ratio")
    main["untraced_jobs_per_s"] = plain["jobs_per_s"]
    main["tracing_overhead"] = overhead
    main["jobs"] += plain["jobs"]
    main["failed"] += plain["failed"]
    main["incorrect"] += plain["incorrect"]
    main["failures"] = plain["failures"] + main["failures"]
    del main["layer_metrics"]
    return main, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=CRITERION2_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rankloss" / "__init__.py").is_file():
        print(f"error: no rankloss sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        detail, metrics = traced(args, deadline) if args.trace else end_to_end(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    detail["error_rate"] = detail["failed"] / detail["jobs"]
    detail["environment"] = environment(args)
    print(json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": detail["incorrect"] == 0,
                "attempted": detail["jobs"],
                "failed": detail["failed"],
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
