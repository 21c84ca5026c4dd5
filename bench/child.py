"""One benchmark process: set up a workload, say READY, run it, report.

``bench/run.py`` starts this module as a fresh interpreter for every
set-up probe and every measured process, so the time from launch to
the READY line is the workload's set-up time as a user pays it.  The
READY line is the only output on the original stdout; everything the
program prints afterwards goes to stderr.  The child writes its
measurements as JSON to ``--report``.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import resource
import sys
import time
from pathlib import Path

from bench import spans, workloads


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python -m bench.child")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--role", choices=("probe", "fill", "measure"), default="measure",
    )
    parser.add_argument(
        "--seconds", type=float, default=0.0,
        help="keep starting passes until this much time has passed "
             "(0: exactly one pass)",
    )
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--report", type=Path)
    parser.add_argument("--baseline", type=Path)
    return parser.parse_args(argv)


def signal_ready() -> None:
    """Print READY, then route this process's stdout to stderr."""
    sys.stdout.write("READY\n")
    sys.stdout.flush()
    os.dup2(2, 1)


def peak_rss_mb() -> float:
    """Largest resident set of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def pickle_jobs(jobs) -> tuple:
    """Bytes and seconds of pickling the shard jobs the pool was sent."""
    size, seconds = 0, 0.0
    for job in jobs:
        start = time.perf_counter()
        size += len(pickle.dumps(job, protocol=pickle.HIGHEST_PROTOCOL))
        seconds += time.perf_counter() - start
    return size, seconds


def measure(workload, args, timer, tracer) -> dict:
    """Timed passes, then the untimed checks; the child's report."""
    from repro.harness.api import add_run_observer, remove_run_observer

    passes = []
    digests = []
    started = time.perf_counter()
    while True:
        log = workloads.RunLog()
        add_run_observer(log)
        timer.active = True
        if tracer is not None:
            tracer.active = True
        start = time.perf_counter()
        workload.run_pass()
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
            for name, value in log.counter_totals().items():
                if name.startswith(("memory.l1d.", "memory.l2.",
                                    "memory.l3.", "memory.tlb.")):
                    tracer.count(name, value)
        timer.active = False
        remove_run_observer(log)
        passes.append({"wall_s": wall, "start_s": start - started})
        digests.append(log.digest())
        if time.perf_counter() - started >= args.seconds:
            break
    workload.finish()
    report = {"passes": passes, "runs": timer.runs, "digests": digests}
    if tracer is not None:
        size, seconds = pickle_jobs(tracer.kept)
        tracer.count("pool.job_bytes", size)
        tracer.count("pool.pickle_s", seconds)
        if getattr(workload, "ipc_error_pct", None):
            tracer.count("timeshard.ipc_error_pct",
                         max(workload.ipc_error_pct))
        report["totals"] = tracer.totals()
        first = passes[0]["start_s"] + started
        report["events"] = [
            (layer, begin - first, duration)
            for layer, begin, duration in tracer.events
        ]
    return report


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = workloads.make(args.workload, baseline=args.baseline)
    workload.setup(args.seed, args.work)
    patches = spans.Patches()
    timer = spans.RunTimer()
    timer.install(patches)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer, patches)
    signal_ready()
    if args.role == "probe":
        return 0
    if args.role == "fill":
        workload.fill()
        report = {}
    else:
        report = measure(workload, args, timer, tracer)

    from repro.perf.pool import shutdown_pool
    from repro.perf.runcache import code_fingerprint
    from repro.report.provenance import host_info

    shutdown_pool()
    ops = workload.ops
    report.update({
        "ops": len(ops),
        "failures": [
            f"{op.name}: {error}" for op in ops for error in op.errors
        ],
        "ops_failed": sum(1 for op in ops if op.errors),
        "ipc_error_pct": getattr(workload, "ipc_error_pct", []),
        "peak_rss_mb": peak_rss_mb(),
        "host": host_info(),
        "code_fingerprint": code_fingerprint(),
    })
    if args.report is not None:
        args.report.write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
