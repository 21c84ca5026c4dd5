"""End-to-end tests for the report pipeline (repro.report.pipeline)."""

import dataclasses
import hashlib
import json

import pytest

from repro.report import (
    ARTIFACTS,
    ArtifactEntry,
    BootstrapCI,
    Manifest,
    MetricStat,
    ReportConfig,
    artifact_names,
    diff_manifests,
    generate_report,
)

_ENTRY = ArtifactEntry(
    name="fig", path="fig.txt", kind="figure", content_sha256="00",
)


def _small_config(tmp_path, **overrides):
    # ablation_tlb is the cheapest figure artifact: three labels, two
    # configurations each.  Tiny budget keeps the test quick while
    # still exercising simulate -> record -> summarize -> ledger.
    defaults = dict(
        out=tmp_path / "final", repeats=2, instructions=1_500,
        seed=0, only={"ablation_tlb", "hw"},
    )
    defaults.update(overrides)
    return ReportConfig(**defaults)


class TestSpecs:
    def test_artifact_names_are_unique(self):
        names = artifact_names()
        assert len(names) == len(set(names))
        filenames = [spec.filename for spec in ARTIFACTS]
        assert len(filenames) == len(set(filenames))

    def test_static_specs_are_exact(self):
        for spec in ARTIFACTS:
            if spec.kind == "static":
                assert spec.tolerance == 0.0

    def test_unknown_subset_raises(self, tmp_path):
        with pytest.raises(ValueError, match="unknown artifact"):
            _small_config(tmp_path, only={"fig99"}).selected()


class TestGenerateReport:
    def test_full_ledger_and_warm_rerun(self, tmp_path):
        config = _small_config(tmp_path)
        manifest, counters = generate_report(config)

        # Every artifact file exists and matches its ledger hash.
        for entry in manifest.artifacts.values():
            text = (config.out / entry.path).read_text()
            digest = hashlib.sha256(
                text[:-1].encode()  # ledger hashes the unterminated text
            ).hexdigest()
            assert digest == entry.content_sha256

        ablation = manifest.artifacts["ablation_tlb"]
        assert ablation.repeats == 2
        # 3 labels x 2 configs x 2 repeats, every run cache-keyed.
        assert len(ablation.runs) == 12
        assert all(ref.cache_key for ref in ablation.runs)
        assert {ref.repeat for ref in ablation.runs} == {0, 1}
        # Three metrics, each summarised over both repeats.
        assert len(ablation.metrics) == 3
        for stat in ablation.metrics.values():
            assert len(stat.ci.values) == 2
            assert stat.ci.lo <= stat.ci.mean <= stat.ci.hi

        # The static artifact carries no metric series.
        assert manifest.artifacts["hw"].metrics == {}

        # Ledger companions.
        assert (config.out / "manifest.json").exists()
        assert (config.out / "manifest.md").exists()
        assert (config.out / "metrics.jsonl").exists()
        assert Manifest.load(config.out / "manifest.json") == manifest

        # The tentpole property: an immediate warm rerun resolves
        # every simulation from the run cache — zero new misses.
        manifest2, counters2 = generate_report(config)
        assert counters2["cache_misses"] == 0
        assert counters2["cache_hits"] == counters["cache_hits"] \
            + counters["cache_misses"]

    def test_warm_rerun_diffs_clean(self, tmp_path):
        config = _small_config(tmp_path)
        baseline, _ = generate_report(config)
        current, _ = generate_report(config)
        report = diff_manifests(baseline, current)
        assert report.ok
        assert not report.failures
        assert "clean" in report.render()

    def test_same_seed_reproduces_ci_bounds(self, tmp_path):
        config = _small_config(tmp_path)
        first, _ = generate_report(config)
        second, _ = generate_report(config)
        assert (
            first.artifacts["ablation_tlb"].metrics
            == second.artifacts["ablation_tlb"].metrics
        )


@pytest.fixture
def two_label_fig4(monkeypatch):
    """The report narrowed to a Fig. 4 over two workloads."""
    from repro.report import pipeline

    spec = next(spec for spec in pipeline._specs() if spec.name == "fig4")
    monkeypatch.setattr(pipeline, "ARTIFACTS", (dataclasses.replace(
        spec, labels=("557.xz_r (SS)", "548.exchange2_r (SS)"),
    ),))


def _count_builds_and_emulation(monkeypatch):
    """Count every workload build and functional-emulator entry."""
    from collections import Counter

    from repro.harness import api
    from repro.isa.emulator import Emulator
    from repro.workloads import generator

    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (api, generator):
        monkeypatch.setattr(module, "build_workload", counted(
            "build_workload", generator.build_workload,
        ))
    for name in ("run", "run_fast", "step"):
        monkeypatch.setattr(Emulator, name, counted(
            f"Emulator.{name}", getattr(Emulator, name),
        ))
    return calls


class TestWarmFig4:
    def test_warm_report_builds_and_emulates_nothing(
        self, tmp_path, monkeypatch, two_label_fig4,
    ):
        from repro.harness.api import _build_cached

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        calls = _count_builds_and_emulation(monkeypatch)
        config = _small_config(tmp_path, only={"fig4"})
        _build_cached.cache_clear()
        cold, cold_counters = generate_report(config)
        # 2 labels x 3 modes x 2 repeats, each built once for its run
        # and its probe; the PROTECTED* probes run the emulator.
        assert calls["build_workload"] == 12
        assert calls["Emulator.run"] == 8

        calls.clear()
        _build_cached.cache_clear()  # as in a fresh process
        warm, counters = generate_report(config)
        assert calls == {}
        assert counters["cache_misses"] == 0
        assert counters["cache_hits"] == cold_counters["cache_misses"]
        for name, entry in cold.artifacts.items():
            assert warm.artifacts[name].content_sha256 == entry.content_sha256
            assert warm.artifacts[name].metrics == entry.metrics


def _manifest_with(value: float, tolerance: float = 0.05) -> Manifest:
    ci = BootstrapCI(
        mean=value, lo=value, hi=value, values=(value,),
    )
    manifest = Manifest(
        code_fingerprint="f" * 20, seed=0, repeats=1, instructions=1000,
    )
    manifest.add(dataclasses.replace(
        _ENTRY, metrics={"ipc": MetricStat("ipc", ci, tolerance)},
    ))
    return manifest


class TestDiff:
    def test_within_tolerance_passes(self):
        report = diff_manifests(_manifest_with(1.00), _manifest_with(1.04))
        assert report.ok

    def test_outside_tolerance_fails(self):
        report = diff_manifests(_manifest_with(1.00), _manifest_with(1.10))
        assert not report.ok
        assert report.failures[0].metric == "ipc"
        assert "FAIL" in report.failures[0].describe()

    def test_baseline_tolerance_governs(self):
        # Loosening the tolerance in the *current* manifest must not
        # rescue an out-of-tolerance value.
        baseline = _manifest_with(1.00, tolerance=0.01)
        current = _manifest_with(1.05, tolerance=0.5)
        assert not diff_manifests(baseline, current).ok

    def test_missing_artifact_fails(self):
        baseline = _manifest_with(1.0)
        empty = Manifest(
            code_fingerprint="f" * 20, seed=0, repeats=1,
            instructions=1000,
        )
        report = diff_manifests(baseline, empty)
        assert not report.ok
        assert "missing" in report.failures[0].note

    def test_new_artifact_is_informational(self):
        empty = Manifest(
            code_fingerprint="f" * 20, seed=0, repeats=1,
            instructions=1000,
        )
        report = diff_manifests(empty, _manifest_with(1.0))
        assert report.ok
        assert "new artifact" in report.items[0].note

    def test_static_artifacts_compare_by_hash(self):
        base = Manifest(
            code_fingerprint="f" * 20, seed=0, repeats=1,
            instructions=1000,
        )
        base.add(dataclasses.replace(_ENTRY, content_sha256="aa"))
        same = Manifest.from_json(base.to_json())
        assert diff_manifests(base, same).ok
        changed = Manifest.from_json(base.to_json())
        changed.artifacts["fig"].content_sha256 = "bb"
        report = diff_manifests(base, changed)
        assert not report.ok
        assert "content hash changed" in report.failures[0].note

    def test_only_restricts_comparison(self):
        baseline = _manifest_with(1.00)
        current = _manifest_with(2.00)  # way out of tolerance
        report = diff_manifests(baseline, current, only={"other"})
        # "other" is absent from the baseline: that is itself a
        # failure, but the out-of-tolerance "fig" is never checked.
        assert all(item.artifact == "other" for item in report.items)

    def test_json_round_trip_preserves_diff_verdict(self, tmp_path):
        baseline = _manifest_with(1.00)
        current = _manifest_with(1.02)
        path = tmp_path / "b.json"
        baseline.save(path)
        loaded = Manifest.load(path)
        assert json.loads(path.read_text())["version"] == loaded.version
        assert diff_manifests(loaded, current).ok
