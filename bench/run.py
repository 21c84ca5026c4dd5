"""Run the benchmark: every workload in fresh processes, every metric.

Usage (from the root of a checkout)::

    python3 bench/run.py [--workload NAME ...] [--seed S] [--seconds T]
                         [--trace [0|1]] [--out DIR]

For each workload it prints the end-to-end metrics by name and unit,
or with ``--trace`` the per-layer metrics, then one JSON line holding
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run is
also appended to ``DIR/runs.jsonl`` (the input of ``compare.py``), and
a traced run writes a Chrome ``trace_event`` file to ``DIR``.

The benchmark uses the ``src/`` tree next to this directory and
nothing outside the checkout: run cache, spool and temporary files
live in a fresh directory under ``.bench_tmp/`` that is removed after
each workload.  It refuses to run when any ``REPRO_*`` variable is
set, because those change what the program does.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from bench import spans, stats, workloads  # noqa: E402

BASELINE = ROOT / "results" / "final" / "baseline.json"

#: Extra processes that only set up, so ``setup_s`` is a median.
SETUP_PROBES = 3
#: Wall-clock limit of one workload, every process included.
WORKLOAD_LIMIT_S = 170.0

UNITS = {
    "wall_s": "s", "setup_s": "s", "run_p50_ms": "ms", "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed operation)."""


def run_seconds_default() -> float:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    return float(config["run_seconds"])


def child_env(scratch: Path, cache: Path) -> Dict[str, str]:
    env = dict(os.environ)
    path = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    env["REPRO_CACHE_DIR"] = str(cache)
    env["REPRO_SPOOL_DIR"] = str(scratch / "spool")
    env["TMPDIR"] = str(scratch / "tmp")
    return env


def spawn(args: List[str], env: Dict[str, str], deadline: float,
          report: Optional[Path]) -> Tuple[float, dict]:
    """Run one child; ``(launch-to-READY seconds, its report)``."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "bench.child", *args], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, bufsize=0, start_new_session=True,
    )
    try:
        setup = None
        while setup is None:
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or not select.select(
                [proc.stdout], [], [], remaining
            )[0]:
                raise BenchError("timed out waiting for set-up")
            line = proc.stdout.readline()
            if not line:
                raise BenchError("a child exited before its set-up ended")
            if line.strip() == b"READY":
                setup = time.perf_counter() - start
        try:
            proc.wait(timeout=max(0.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            raise BenchError("timed out") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"child {' '.join(args)} exited "
                         f"with {proc.returncode}")
    return setup, (json.loads(report.read_text()) if report else {})


def measure(name: str, seed: int, seconds: float, trace: bool,
            probes: int, deadline: float) -> dict:
    """Every process of one workload run; their set-up times and reports.

    Report workloads run one report per fresh interpreter, as users
    run it, until *seconds* have passed; a warm report first gets an
    untimed cold fill of its cache.  Kernel workloads repeat their
    passes in one process for *seconds*.
    """
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_tmp") as tmp:
        scratch = Path(tmp)
        (scratch / "tmp").mkdir()
        common = ["--workload", name, "--seed", str(seed),
                  "--baseline", str(BASELINE), "--work", str(scratch)]
        if trace:
            common.append("--trace")

        def child(role: str, index: int, cache: str, extra=()):
            report = scratch / f"{role}-{index}.json"
            args = common + ["--role", role, *extra]
            if role != "probe":
                args += ["--report", str(report)]
            return spawn(args, child_env(scratch, scratch / cache),
                         deadline, None if role == "probe" else report)

        setups = [child("probe", i, "cache")[0] for i in range(probes)]
        reports: List[dict] = []
        fills: List[dict] = []
        if name.startswith("report-"):
            if name == "report-warm":
                fills.append(child("fill", 0, "cache")[1])
            started = time.perf_counter()
            while not reports or time.perf_counter() - started < seconds:
                index = len(reports)
                cache = "cache" if name == "report-warm" else f"cache-{index}"
                setup, report = child("measure", index, cache)
                setups.append(setup)
                reports.append(report)
        else:
            setup, report = child(
                "measure", 0, "cache", ["--seconds", str(seconds)]
            )
            setups.append(setup)
            reports.append(report)
    return {"setups": setups, "reports": reports, "fills": fills}


def outcome(run: dict) -> Tuple[int, int, List[str]]:
    """Ops attempted and failed, fills included, and the failures."""
    docs = run["reports"] + run["fills"]
    return (
        sum(doc["ops"] for doc in docs),
        sum(doc["ops_failed"] for doc in docs),
        [failure for doc in docs for failure in doc["failures"]],
    )


def pass_walls(run: dict) -> List[float]:
    return [p["wall_s"] for doc in run["reports"] for p in doc["passes"]]


def end_to_end(name: str, run: dict) -> Tuple[Dict[str, float], dict]:
    """``(metrics, details)`` of one untraced workload run.

    Timings are medians; ``peak_rss_mb`` is the largest process.
    """
    runs = [tuple(r) for doc in run["reports"] for r in doc["runs"]]
    counts_cached = workloads.make(name).counts_cached
    counted = [
        latency * 1e3 for latency, cached, _ in runs
        if cached == counts_cached
    ]
    simulated = [(lat, instr) for lat, cached, instr in runs if not cached]
    samples = {
        "wall_s": pass_walls(run),
        "setup_s": run["setups"],
        "run_p50_ms": counted,
        "peak_rss_mb": [doc["peak_rss_mb"] for doc in run["reports"]],
    }
    summary = {
        metric: stats.summarize(values)
        for metric, values in samples.items() if values
    }
    metrics = {metric: s["median"] for metric, s in summary.items()}
    metrics["peak_rss_mb"] = max(samples["peak_rss_mb"])
    details = {
        "summary": summary,
        "run_p90_ms": stats.tail_percentile(counted, 90),
        "sim_kips": (
            sum(i for _, i in simulated) / sum(t for t, _ in simulated) / 1e3
            if simulated else None
        ),
        "shard_ipc_error_pct": max(
            (e for doc in run["reports"] for e in doc["ipc_error_pct"]),
            default=None,
        ),
        "sim_digest": sorted(
            {d for doc in run["reports"] for d in doc["digests"]}
        ),
        "passes": len(samples["wall_s"]),
    }
    return metrics, details


def per_layer(untraced: dict, traced: dict) -> Dict[str, float]:
    """Per-layer metrics of the traced run, overhead against untraced."""
    parts = []
    for doc in traced["reports"]:
        totals = dict(doc["totals"])
        totals["wall_s"] = sum(p["wall_s"] for p in doc["passes"])
        parts.append(totals)
    metrics = spans.layer_metrics(spans.merge_totals(parts))
    plain = stats.quartiles(pass_walls(untraced))[1]
    with_spans = stats.quartiles(pass_walls(traced))[1]
    metrics["trace_overhead_pct"] = 100.0 * (with_spans / plain - 1.0)
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 out: Path) -> dict:
    deadline = time.perf_counter() + WORKLOAD_LIMIT_S
    untraced = measure(name, seed, seconds, False,
                       0 if trace else SETUP_PROBES, deadline)
    attempted, failed, failures = outcome(untraced)
    first = untraced["reports"][0]
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "host": first["host"], "code_fingerprint": first["code_fingerprint"],
    }
    if trace:
        traced = measure(name, seed, seconds, True, 0, deadline)
        more = outcome(traced)
        attempted, failed = attempted + more[0], failed + more[1]
        failures += more[2]
        metrics = per_layer(untraced, traced)
        units = spans.per_layer_units()
        record["trace_file"] = str(out / f"trace-{name}-s{seed}.json")
        Path(record["trace_file"]).write_text(json.dumps(spans.chrome_trace([
            (f"{name} process {index}", doc["events"])
            for index, doc in enumerate(traced["reports"])
        ])))
    else:
        metrics, details = end_to_end(name, untraced)
        record.update(details)
        units = UNITS
    record.update({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "failures": failures[:50],
        "metrics": {
            metric: {"value": metrics[metric], "unit": unit}
            for metric, unit in units.items() if metric in metrics
        },
    })
    return record


def render(record: dict) -> str:
    """The human-readable block printed before the JSON line."""
    mode = "traced" if record["trace"] else "untraced"
    lines = [
        f"== {record['workload']} (seed {record['seed']}, "
        f"{record['seconds']:g} s, {mode}) ==",
        f"  {'ops':<30} {record['attempted']}",
        f"  {'ops_failed':<30} {record['failed']}",
    ]
    lines += [f"    FAIL {failure}" for failure in record["failures"][:10]]
    summary = record.get("summary", {})
    for metric, value in record["metrics"].items():
        line = f"  {metric:<30} {value['value']:<14.6g} {value['unit']}"
        if metric in summary:
            s = summary[metric]
            line += f"   [q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']}]"
        lines.append(line)
    if not record["trace"]:
        p90 = record["run_p90_ms"]
        lines.append(f"  {'run_p90_ms':<30} " + (
            f"{p90:<14.6g} ms" if p90 is not None
            else "(omitted: fewer than 10 samples beyond p90)"
        ))
        for metric, unit in (("sim_kips", "KIPS"),
                             ("shard_ipc_error_pct", "%")):
            if record[metric] is not None:
                lines.append(
                    f"  {metric:<30} {record[metric]:<14.6g} {unit}"
                )
        lines.append(f"  {'passes':<30} {record['passes']}")
        lines.append(f"  {'sim_digest':<30} {' '.join(record['sim_digest'])}")
    else:
        metrics = record["metrics"]
        total = metrics["unattributed_s"]["value"] + sum(
            metrics[f"{layer}.self_s"]["value"] for layer in spans.LAYERS
        )
        lines.append(f"  sum(self_s) + unattributed_s = {total:.6g} s "
                     "(the traced wall_s)")
        lines.append(f"  chrome trace: {record['trace_file']}")
    return "\n".join(lines)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python3 bench/run.py",
        description="End-to-end benchmark of the SpecMPK reproduction.",
    )
    parser.add_argument("--workload", action="append",
                        choices=workloads.NAMES,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 gives the canonical inputs")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: print per-layer metrics from a traced pass")
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_out",
                        help="directory for runs.jsonl and trace files")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    knobs = sorted(name for name in os.environ if name.startswith("REPRO_"))
    if knobs:
        print(f"refusing to run with {', '.join(knobs)} set: the benchmark "
              "sets the REPRO_* environment itself", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source at {ROOT / 'src'}; run from a full "
              "checkout", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else (
        run_seconds_default()
    )
    args.out.mkdir(parents=True, exist_ok=True)
    correct = True
    try:
        for name in args.workload or workloads.NAMES:
            record = run_workload(name, args.seed, seconds,
                                  bool(args.trace), args.out)
            correct = correct and record["correct"]
            with open(args.out / "runs.jsonl", "a") as handle:
                handle.write(json.dumps(record) + "\n")
            print(render(record))
            print(json.dumps({
                key: record[key]
                for key in ("correct", "attempted", "failed", "metrics")
            }), flush=True)
    except BenchError as error:
        print(f"benchmark error: {error}", file=sys.stderr)
        return 2
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
