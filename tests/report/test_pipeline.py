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


@pytest.fixture
def small_report(monkeypatch, tmp_path):
    """A Fig. 9 over two workloads plus the Fig. 13 static artifact, on
    a private run cache."""
    from repro.report import pipeline

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    specs = {spec.name: spec for spec in pipeline._specs()}
    monkeypatch.setattr(pipeline, "ARTIFACTS", (
        dataclasses.replace(
            specs["fig9"], labels=("557.xz_r (SS)", "548.exchange2_r (SS)"),
        ),
        specs["fig13"],
    ))
    return _small_config(tmp_path, only={"fig9", "fig13"})


def _count_resampling_and_simulation(monkeypatch):
    """Count bootstrap CIs, Simulator constructions and Fig. 13 runs."""
    from collections import Counter

    import repro.harness
    from repro.core.pipeline import Simulator
    from repro.report import bootstrap

    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(bootstrap, "bootstrap_ci", counted(
        "bootstrap_ci", bootstrap.bootstrap_ci,
    ))
    monkeypatch.setattr(Simulator, "__init__", counted(
        "Simulator.__init__", Simulator.__init__,
    ))
    monkeypatch.setattr(repro.harness, "fig13_flush_reload", counted(
        "fig13_flush_reload", repro.harness.fig13_flush_reload,
    ))
    return calls


def _without_timing(entry: ArtifactEntry) -> dict:
    """An artifact's ledger entry minus what a cache hit changes: each
    run's ``from_cache`` flag and wall time."""
    data = entry.as_dict()
    for run in data["runs"]:
        del run["from_cache"], run["wall_seconds"]
    return data


class TestWarmReport:
    def test_warm_report_resamples_and_simulates_nothing(
        self, monkeypatch, small_report,
    ):
        calls = _count_resampling_and_simulation(monkeypatch)
        cold, cold_counters = generate_report(small_report)
        assert calls["bootstrap_ci"] > 0
        assert calls["fig13_flush_reload"] == 1

        calls.clear()
        warm, counters = generate_report(small_report)
        assert calls == {}
        assert counters["cache_misses"] == 0
        assert counters["cache_hits"] == cold_counters["cache_misses"]
        assert warm.artifacts.keys() == cold.artifacts.keys()
        for name, entry in cold.artifacts.items():
            assert _without_timing(warm.artifacts[name]) == \
                _without_timing(entry)
        assert warm.artifacts["fig9"].metrics  # CIs were compared

    def test_cache_off_recomputes_both_memos(
        self, monkeypatch, small_report,
    ):
        calls = _count_resampling_and_simulation(monkeypatch)
        cold, _ = generate_report(small_report)
        cold_calls = dict(calls)

        calls.clear()
        monkeypatch.setenv("REPRO_CACHE", "0")
        again, _ = generate_report(small_report)
        assert calls["bootstrap_ci"] == cold_calls["bootstrap_ci"]
        assert calls["fig13_flush_reload"] == 1
        for name, entry in cold.artifacts.items():
            assert again.artifacts[name].metrics == entry.metrics
            assert again.artifacts[name].content_sha256 == \
                entry.content_sha256

    def test_memos_move_no_run_counter(self, small_report):
        from repro.perf.runcache import default_cache

        cache = default_cache()
        cold, cold_counters = generate_report(small_report)
        runs = sum(len(entry.runs) for entry in cold.artifacts.values())
        assert runs == 12  # 2 labels x 3 policies x 2 repeats
        # Every lookup is a run: the memo writes added nothing...
        assert cold_counters["cache_misses"] == runs
        assert cold_counters["cache_hits"] == 0
        assert cache.persistent_counters() == {"hits": 0, "misses": runs}

        # ...and neither did the memo reads.
        _warm, counters = generate_report(small_report)
        assert (counters["cache_hits"], counters["cache_misses"]) == (runs, 0)
        assert (cache.hits, cache.misses) == (runs, runs)
        assert cache.persistent_counters() == {"hits": runs, "misses": runs}

    def test_bootstrap_key_covers_its_inputs(self):
        from repro.report.bootstrap import derive_seed
        from repro.report.pipeline import _statistic_for, bootstrap_key

        series = {"specmpk[a]": [1.0, 1.5], "specmpk[geomean]": [1.0, 1.2]}
        statistics = {name: _statistic_for(name) for name in series}
        seed = derive_seed(0, "fig9")
        key = bootstrap_key(series, seed, statistics)
        assert key == bootstrap_key(dict(series), seed, dict(statistics))
        changed = [
            bootstrap_key({**series, "specmpk[a]": [1.0, 1.5000001]},
                          seed, statistics),
            bootstrap_key(series, derive_seed(1, "fig9"), statistics),
            bootstrap_key(series, derive_seed(0, "fig10"), statistics),
            bootstrap_key(series, seed,
                          {**statistics, "specmpk[a]": "geomean"}),
        ]
        assert len({key, *changed}) == 1 + len(changed)


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
