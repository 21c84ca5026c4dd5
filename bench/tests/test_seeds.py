"""Seed plumbing: seed 0 is the ledger's input, other seeds are new."""

import pytest

from bench import workloads
from repro.core.config import WrpkruPolicy
from repro.harness.api import RunRequest
from repro.report import pipeline
from repro.workloads import profiles, seed_variant


@pytest.fixture
def restore_program_tables(monkeypatch):
    monkeypatch.setattr(pipeline, "ARTIFACTS", pipeline.ARTIFACTS)
    monkeypatch.setattr(profiles, "_BY_LABEL", dict(profiles._BY_LABEL))


def report_keys(seed, tmp_path):
    """Run-cache keys of Fig. 10's runs, every repeat, at *seed*."""
    workload = workloads.ReportWorkload("report-cold", warm=False)
    workload.setup(seed, tmp_path)
    (spec,) = [s for s in pipeline.ARTIFACTS if s.name == "fig10"]
    keys = {
        RunRequest(
            workload=seed_variant(label, repeat), policy=policy,
            instructions=workloads.REPORT_INSTRUCTIONS,
        ).cache_key()
        for label in spec.labels
        for repeat in range(workloads.REPORT_REPEATS)
        for policy in WrpkruPolicy
    }
    return keys


def test_seed_zero_keys_are_the_ledgers(restore_program_tables, tmp_path):
    (spec,) = [s for s in pipeline.ARTIFACTS if s.name == "fig10"]
    ledger = {
        RunRequest(
            workload=seed_variant(label, repeat), policy=policy,
            instructions=workloads.REPORT_INSTRUCTIONS,
        ).cache_key()
        for label in spec.labels
        for repeat in range(workloads.REPORT_REPEATS)
        for policy in WrpkruPolicy
    }
    assert report_keys(0, tmp_path) == ledger


def test_other_seeds_share_no_key(restore_program_tables, tmp_path):
    zero, one, two = (report_keys(seed, tmp_path) for seed in (0, 1, 2))
    assert len(one) == len(zero)
    assert not zero & one and not one & two and not zero & two


def test_kernel_labels_bind_to_seed_variants(restore_program_tables):
    label = workloads.KERNEL_LABELS[0]
    base = profiles.profile_by_label(label)
    workloads.bind_labels([label], 0)
    assert profiles.profile_by_label(label) == base
    workloads.bind_labels([label], 3)
    workloads.bind_labels([label], 3)
    assert profiles.profile_by_label(label) == seed_variant(
        base, workloads.variant_offset(3)
    )
