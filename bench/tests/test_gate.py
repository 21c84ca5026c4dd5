"""The correctness gate: each check fails when its evidence is wrong."""

import dataclasses
from pathlib import Path

import pytest

from bench import workloads
from repro.report import Manifest

BASELINE = Path(__file__).resolve().parents[2] / "results/final/baseline.json"


def gate(seed, reference: Manifest, tmp_path):
    """A cold report workload checking against *reference*."""
    path = tmp_path / "reference.json"
    reference.save(path)
    workload = workloads.ReportWorkload(
        "report-cold", warm=False, baseline=path,
    )
    workload.seed = seed
    workload.baseline = Manifest.load(path)
    return workload


def checked(workload, manifest):
    ops = [workloads.Op(name) for name in sorted(manifest.artifacts)]
    workload._check_baseline(manifest, ops)
    return {op.name for op in ops if op.errors}


def perturbed(manifest, artifact, metric=None):
    copy = Manifest.from_json(manifest.to_json())
    entry = copy.artifacts[artifact]
    if metric is None:
        entry.content_sha256 = "0" * 64
    else:
        stat = entry.metrics[metric]
        ci = dataclasses.replace(stat.ci, mean=stat.ci.mean * 1.5 + 1.0)
        entry.metrics[metric] = dataclasses.replace(stat, ci=ci)
    return copy


@pytest.fixture(scope="module")
def ledger():
    return Manifest.load(BASELINE)


def test_the_ledger_passes_its_own_gate(ledger, tmp_path):
    assert checked(gate(0, ledger, tmp_path), ledger) == set()


def test_a_perturbed_figure_fails_at_seed_zero(ledger, tmp_path):
    metric = sorted(ledger.artifacts["fig9"].metrics)[0]
    reference = perturbed(ledger, "fig9", metric)
    assert checked(gate(0, reference, tmp_path), ledger) == {"fig9"}


def test_other_seeds_compare_static_artifacts_only(ledger, tmp_path):
    metric = sorted(ledger.artifacts["fig9"].metrics)[0]
    figure = perturbed(ledger, "fig9", metric)
    assert checked(gate(1, figure, tmp_path), ledger) == set()
    table = perturbed(ledger, "table2")
    assert checked(gate(1, table, tmp_path), ledger) == {"table2"}


def test_warm_report_must_match_cold_and_miss_nothing(ledger, tmp_path):
    (tmp_path / "fill").mkdir()
    ledger.save(tmp_path / "fill" / "manifest.json")
    workload = workloads.ReportWorkload("report-warm", warm=True)
    workload.workdir = tmp_path
    names = sorted(ledger.artifacts)

    def failed(manifest, misses):
        ops = [workloads.Op(name) for name in names]
        workload._check_warm(manifest, {"cache_misses": misses}, ops)
        return {op.name for op in ops if op.errors}

    assert failed(ledger, 0) == set()
    assert failed(ledger, 1) == set(names)
    assert failed(perturbed(ledger, "table3"), 0) == {"table3"}


def test_sharded_op_must_match_the_exact_monolithic_run():
    reference = {
        "instructions_retired": 1000, "wrpkru_retired": 10,
        "rdpkru_retired": 0, "branches_retired": 100, "loads_retired": 300,
        "stores_retired": 100, "ipc": 1.0,
    }
    good = workloads.Op("good", stats=dict(reference, ipc=1.005))
    assert workloads.check_shards(good, reference) == pytest.approx(0.5)
    assert good.errors == []
    bad = workloads.Op("bad", stats=dict(reference, loads_retired=301,
                                          ipc=1.02))
    workloads.check_shards(bad, reference)
    assert len(bad.errors) == 2
