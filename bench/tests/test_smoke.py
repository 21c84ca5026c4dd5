"""Every workload runs end to end at a tiny budget and checks clean."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench import workloads
from repro.perf.pool import shutdown_pool
from repro.report import pipeline
from repro.workloads import profiles

ROOT = Path(__file__).resolve().parents[2]
BASELINE = ROOT / "results" / "final" / "baseline.json"
TINY_REPORT = {"instructions": 300, "repeats": 1,
               "only": ("ablation_tlb", "table2")}
TINY_KERNEL = {"labels": ("548.exchange2_r (SS)",), "instructions": 1_500,
               "warmup": 300, "priming_instructions": 200}


@pytest.fixture(autouse=True)
def isolated(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(pipeline, "ARTIFACTS", pipeline.ARTIFACTS)
    monkeypatch.setattr(profiles, "_BY_LABEL", dict(profiles._BY_LABEL))
    yield
    shutdown_pool()


def failures(workload):
    return [error for op in workload.ops for error in op.errors]


@pytest.mark.parametrize("seed", [0, 1])
def test_report_workloads(seed, tmp_path):
    cold = workloads.make("report-cold", baseline=BASELINE, **TINY_REPORT)
    cold.setup(seed, tmp_path)
    cold.run_pass()
    cold.finish()
    warm = workloads.make("report-warm", baseline=BASELINE, **TINY_REPORT)
    warm.setup(seed, tmp_path)
    warm.fill()
    warm.run_pass()
    warm.finish()
    assert len(cold.ops) == 2 and len(warm.ops) == 4
    assert failures(cold) == [] and failures(warm) == []


@pytest.mark.parametrize("name", ["long-run", "sharded-run"])
def test_kernel_workload_repeats_exactly(name, tmp_path):
    workload = workloads.make(name, **TINY_KERNEL)
    workload.setup(1, tmp_path)
    workload.run_pass()
    workload.run_pass()
    workload.finish()
    assert len(workload.ops) == 4
    assert failures(workload) == []
    if name == "sharded-run":
        assert len(workload.ipc_error_pct) == 4


def test_runner_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "long-run"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""


def test_runner_refuses_repro_knobs(tmp_path):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin", "REPRO_SCALE": "2"},
    )
    assert done.returncode == 2 and "REPRO_SCALE" in done.stderr


def test_end_to_end_metrics_count_the_workloads_runs():
    from bench.run import end_to_end

    report = {
        "passes": [{"wall_s": 2.0}, {"wall_s": 4.0}],
        "runs": [[0.5, False, 6000], [0.001, True, 0], [0.7, False, 6000]],
        "peak_rss_mb": 40.0, "ipc_error_pct": [], "digests": ["d"],
    }
    run = {"setups": [0.2, 0.4, 0.3], "reports": [report], "fills": []}
    metrics, details = end_to_end("long-run", run)
    assert metrics == pytest.approx({
        "wall_s": 3.0, "setup_s": 0.3, "run_p50_ms": 600.0,
        "peak_rss_mb": 40.0,
    })
    assert details["sim_kips"] == pytest.approx(12.0 / 1.2)
    assert end_to_end("report-warm", run)[0]["run_p50_ms"] == (
        pytest.approx(1.0)
    )
    json.dumps(details)
