"""One benchmark process: set up a workload, run it in passes, print the result.

`run.py` starts this script in a fresh interpreter for every measurement.
Set-up ends when the first timed job is about to start; the script then
prints the CLOCK_MONOTONIC time of that moment, so the parent can measure
set-up from the moment it started the process.  With --setup-only it stops
there.  Otherwise it runs a fixed number of whole passes, closed loop with
one client, and prints one JSON line.  The number of passes follows from
--seconds and the workload's nominal pass time, so a seed and a length
always give the same jobs, and a faster program finishes them sooner.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import types
from pathlib import Path

from speed import MIN_PROBES, SpeedSampler

ROOT = Path(__file__).resolve().parent.parent


# Per-layer metrics of the traced run, each per job.  "<span>.<field>" reads
# a column of the span summary, "<span>.<field>.n<k>" only the jobs whose
# ensemble has k rows; the rest are counts the workloads derive from the
# sizes of their inputs.  Spans recorded while inputs are made (such as the
# sweep's Ensemble constructions) count too.
LAYER_METRICS = tuple(
    (name, "s/job" if ".self_s" in name else "count/job")
    for name in (
        "conditions.check_C5.self_s",
        "conditions.c5.pairs_computed",
        "conditions.check_C2.self_s",
        "conditions.check_C3.self_s",
        "conditions.check_C4.self_s",
        "conditions.cross_validate.self_s",
        "conditions.max_tau.self_s",
        "conditions.max_tau.self_s.n7",
        "conditions.max_tau.self_s.n8",
        "conditions.max_tau.self_s.n9",
        "conditions.max_tau.self_s.n10",
        "conditions.c2.masks_computed",
        "conditions.Ensemble.calls",
        "conditions.Ensemble.self_s",
        "randrank.check_C1.self_s",
        "randrank.sample_ranks.calls",
        "randrank.sample_ranks.self_s",
        "exactla.rank.calls",
        "exactla.rank.self_s",
        "exactla.rank.cells_computed",
        "exactla.det.calls",
        "exactla.det.self_s",
        "exactla.sparse_dim.calls",
        "exactla.sparse_dim.self_s",
        "exactla.nullspace_basis.self_s",
        "exactla.is_full_column_rank.calls",
        "exactla.is_full_column_rank.self_s",
        "tim.verify_decodability.calls",
        "tim.verify_decodability.self_s",
        "tim.verify_decodability.receivers_failed",
        "tim.chromatic_number.self_s",
        "tim.synth_exclusive_scheme.self_s",
        "tim.synth_half_dof_scheme.self_s",
        "tim.normalize_alignment.self_s",
        "matching.adapted_basis.calls",
        "matching.adapted_basis.self_s",
        "matroid.verify_axioms.self_s",
        "matroid.rank.calls",
        "cli.main.calls",
        "cli.main.self_s",
        "fileio.load.calls",
        "fileio.load.self_s",
        "fileio.emit.self_s",
        "fileio.load.errors",
    )
)
SPAN_GROUPS = {
    "fileio.load": ("fileio.load_ensemble", "fileio.load_topology", "fileio.load_scheme"),
    "fileio.emit": ("fileio.emit_ensemble", "fileio.emit_topology", "fileio.emit_scheme", "fileio.write_json"),
}
SUMMARY_FIELDS = {"self_s": "self_s", "calls": "calls", "errors": "errors", "cells_computed": "work"}
JOB_COUNTS = {
    "conditions.c5.pairs_computed": "c5_pairs",
    "conditions.c2.masks_computed": "c2_masks",
    "tim.verify_decodability.receivers_failed": "receivers_failed",
}


def layer_value(name: str, summary: dict, jobs: list[dict]) -> float:
    """One per-layer metric, averaged over the jobs of the traced run."""
    if name in JOB_COUNTS:
        return sum(job["counts"].get(JOB_COUNTS[name], 0) for job in jobs) / len(jobs)
    parts = name.split(".")
    row_count = None
    if parts[-1][0] == "n" and parts[-1][1:].isdigit():
        row_count = int(parts.pop()[1:])
    field = parts.pop()
    spans = SPAN_GROUPS.get(".".join(parts), (".".join(parts),))
    rows = [summary[s] for s in spans if s in summary]
    if row_count is None:
        return sum(row[SUMMARY_FIELDS[field]] for row in rows) / len(jobs)
    selected = {job["index"] for job in jobs if job["n"] == row_count}
    total = sum(t for row in rows for job, t in row["self_s_by_job"].items() if job in selected)
    return total / len(selected) if selected else 0.0


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def load_api():
    """Import rankloss from this checkout's sources; the import is part of set-up."""
    sys.path.insert(0, str(ROOT / "src"))
    import rankloss
    from rankloss import cli, conditions, exactla, fileio, matching, matroid, randrank, tim

    return types.SimpleNamespace(
        package=rankloss,
        cli=cli,
        conditions=conditions,
        fileio=fileio,
        randrank=randrank,
        Ensemble=conditions.Ensemble,
        ExactMatrix=exactla.ExactMatrix,
        TrialConfig=randrank.TrialConfig,
        modules=(exactla, conditions, randrank, matroid, matching, tim, fileio, cli),
    )


def module_caches(api) -> list:
    """Every functools cache held at module level in rankloss."""
    return [
        obj
        for module in api.modules
        for obj in vars(module).values()
        if callable(getattr(obj, "cache_clear", None))
    ]


# job_tail_ms is the slowest job with at least TAIL_ABOVE jobs slower than it
# (the slowest job when a run has fewer).  Job counts are fixed, so each
# workload's tail is always the same order statistic and percentile.
TAIL_ABOVE = 10


def tail(values: list[float]) -> tuple[float, float]:
    """The tail latency and the percentile it stands at."""
    ordered = sorted(values)
    if len(ordered) <= TAIL_ABOVE:
        return ordered[-1], 100.0
    rank = len(ordered) - 1 - TAIL_ABOVE
    return ordered[rank], 100 * rank / (len(ordered) - 1)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import RUN_DIR, WORKLOADS, JobFailed, KnownDefect

    sampler = SpeedSampler()
    sampler.start()
    workdir = ROOT / RUN_DIR / args.workload
    try:
        api = load_api()
        caches = module_caches(api)
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer(clock=sampler.now)
            tracer.install(api.package)
        workdir.mkdir(parents=True, exist_ok=True)
        workload = WORKLOADS[args.workload](api, args.seed, workdir)
        ready, ready_at, setup_lost_s = monotonic(), sampler.now(), sampler.lost
        if not args.setup_only:
            result = run_passes(workload, workload.passes(args.seconds), tracer, caches, sampler, JobFailed, KnownDefect)
        sampler.fill()
    finally:
        sampler.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    # The parent measures set-up from the moment it started this process.
    setup = {"ready": ready, "setup_lost_s": setup_lost_s, "setup_scale": sampler.scale(end=ready_at)}
    if args.setup_only:
        print(json.dumps(setup))
        return 0
    jobs = result.pop("jobs_meta")
    result.update(setup, digest=workload.digest)
    if tracer is not None:
        summary = tracer.summary()
        result["layer_metrics"] = {name: layer_value(name, summary, jobs) for name, _ in LAYER_METRICS}
        result["layers"] = {
            name: {"calls": row["calls"], "self_s": row["self_s"], "parents": row["parents"]}
            for name, row in summary.items()
        }
        spans_file = ROOT / RUN_DIR / f"spans-{args.workload}-{args.seed}.json"
        tracer.write(spans_file)
        result["spans_file"] = str(spans_file.relative_to(ROOT))
    print(json.dumps(result))
    return 0


def run_passes(workload, passes: int, tracer, caches, sampler, job_failed, known_defect) -> dict:
    """Run the passes; time each job on the sampler's clock and scale it to reference speed."""
    job_span = tracer.span if tracer else lambda name: contextlib.nullcontext()
    unrecorded = tracer.suspended if tracer else contextlib.nullcontext
    windows: list[tuple[float, float]] = []
    failures: list[str] = []
    incorrect = 0
    jobs_meta = []
    rss_first_pass = None
    for p in range(passes):
        for job in workload.jobs(p):  # a later pass's inputs are made before its first job
            if tracer:
                tracer.job_id = job.index
            error, known = None, False
            t0 = sampler.now()
            try:
                with job_span("bench.job"):
                    outcome = workload.run(job)
            except Exception as exc:  # a raising job is a failed job, not a failed run
                error = f"{type(exc).__name__}: {exc}"
            windows.append((t0, sampler.now()))
            if error is None:
                try:
                    with unrecorded():
                        workload.check(job, outcome)
                except job_failed as exc:
                    error, known = str(exc), isinstance(exc, known_defect)
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
            if error is not None:
                failures.append(f"job {job.index}: {error}")
                incorrect += not known
            if not workload.library_use:
                for cache in caches:
                    cache.cache_clear()
            jobs_meta.append({"index": job.index, "n": job.n, "counts": job.counts})
        if tracer:
            tracer.job_id = -1
        if rss_first_pass is None:
            rss_first_pass = peak_rss_mb()
    sampler.fill(len(sampler.took) + MIN_PROBES)  # probes after the last job too
    raw = [end - start for start, end in windows]
    scaled = [(end - start) * sampler.scale(start, end) for start, end in windows]
    tail_s, tail_percentile = tail(scaled)
    return {
        "jobs": len(windows),
        "failed": len(failures),
        "incorrect": incorrect,
        "failures": failures[:20],
        "passes": passes,
        "jobs_per_s": len(scaled) / sum(scaled),
        "job_p50_ms": statistics.median(scaled) * 1000,
        "job_tail_ms": tail_s * 1000,
        "tail_percentile": tail_percentile,
        "raw": {
            "job_s": sum(raw),
            "jobs_per_s": len(raw) / sum(raw),
            "job_p50_ms": statistics.median(raw) * 1000,
            "job_tail_ms": tail(raw)[0] * 1000,
        },
        "run_scale": sampler.scale(windows[0][0], windows[-1][1]),
        "probes": len(sampler.took),
        "peak_rss_mb": rss_first_pass,
        "jobs_meta": jobs_meta,
    }


if __name__ == "__main__":
    sys.exit(main())
