"""Tests for the typed harness API (repro.harness.api) and typed rows."""

import pickle

import pytest

from repro.core import CoreConfig, WrpkruPolicy
from repro.core.stats import SimStats
from repro.harness import (
    Fig3Row,
    RunRequest,
    RunResult,
    Table3Row,
    TraceOptions,
    execute,
    export_csv,
    render_table,
    run_workload,
    sweep_policies,
)
from repro.trace import BUCKETS
from repro.workloads.instrument import InstrumentMode
from repro.workloads.profiles import ALL_PROFILES, seed_variant

FAST = dict(instructions=1500, warmup=300)


class TestRunRequest:
    def test_defaults_resolve_to_measurement_budget(self):
        request = RunRequest(workload="557.xz_r (SS)",
                             policy=WrpkruPolicy.SPECMPK)
        assert request.resolved_instructions() >= 2_000
        assert request.resolved_warmup() == 4_000
        assert request.mode is InstrumentMode.PROTECTED
        assert request.trace.enabled is False

    def test_frozen_and_replace(self):
        request = RunRequest(workload="557.xz_r (SS)",
                             policy=WrpkruPolicy.SPECMPK)
        with pytest.raises(Exception):
            request.policy = WrpkruPolicy.SERIALIZED
        swept = request.replace(policy=WrpkruPolicy.SERIALIZED)
        assert swept.policy is WrpkruPolicy.SERIALIZED
        assert request.policy is WrpkruPolicy.SPECMPK

    def test_request_pickles(self):
        request = RunRequest(
            workload="557.xz_r (SS)", policy=WrpkruPolicy.SPECMPK,
            config=CoreConfig(wrpkru_policy=WrpkruPolicy.SPECMPK),
            trace=TraceOptions(enabled=True, capacity=128),
        )
        clone = pickle.loads(pickle.dumps(request))
        assert clone == request


class TestExecute:
    def test_untraced_result(self):
        result = execute(RunRequest(
            workload="557.xz_r (SS)", policy=WrpkruPolicy.SPECMPK, **FAST,
        ))
        assert isinstance(result, RunResult)
        assert result.trace is None
        assert result.topdown() is None
        assert result.ipc == result.stats.ipc > 0
        assert result.metadata.label == "557.xz_r (SS)"
        assert result.metadata.instructions == FAST["instructions"]
        meta = result.metadata.as_dict()
        assert meta["policy"] == "specmpk"

    def test_traced_result_reconciles(self):
        result = execute(RunRequest(
            workload="557.xz_r (SS)", policy=WrpkruPolicy.SPECMPK,
            trace=TraceOptions(enabled=True), **FAST,
        ))
        assert result.trace is not None
        report = result.topdown()
        assert report.reconciles(tolerance=0.01)
        assert report.total_cycles == result.stats.cycles

    @pytest.mark.parametrize(
        "label", [profile.label for profile in ALL_PROFILES]
    )
    def test_topdown_reconciles_on_every_profile(self, label):
        result = execute(RunRequest(
            workload=label, policy=WrpkruPolicy.SPECMPK,
            trace=TraceOptions(enabled=True),
            instructions=800, warmup=200,
        ))
        report = result.topdown()
        assert report.reconciles(tolerance=0.01), label
        assert report.accounted_cycles == result.stats.cycles

    def test_unknown_workload_raises(self):
        from repro.harness import RequestError

        with pytest.raises(RequestError, match="unknown workload label"):
            RunRequest(workload="nope (SS)",
                       policy=WrpkruPolicy.SPECMPK, **FAST)


class TestRequestValidation:
    def test_unknown_label_rejected_at_construction(self):
        from repro.harness import RequestError

        with pytest.raises(RequestError, match="nope"):
            RunRequest(workload="nope", policy=WrpkruPolicy.SPECMPK)

    def test_request_error_is_a_value_error(self):
        from repro.harness import RequestError

        assert issubclass(RequestError, ValueError)

    @pytest.mark.parametrize("field", ["instructions", "warmup"])
    def test_negative_budget_rejected(self, field):
        from repro.harness import RequestError

        with pytest.raises(RequestError, match=f"{field} budget"):
            RunRequest(workload="557.xz_r (SS)",
                       policy=WrpkruPolicy.SPECMPK, **{field: -1})

    def test_template_replace_revalidates(self):
        from repro.harness import RequestError

        template = RunRequest(workload="", policy=WrpkruPolicy.SPECMPK)
        assert template.replace(workload="557.xz_r (SS)").workload
        with pytest.raises(RequestError):
            template.replace(workload="bogus label")

    def test_cache_key_is_public_and_stable(self):
        request = RunRequest(workload="557.xz_r (SS)",
                             policy=WrpkruPolicy.SPECMPK, **FAST)
        key = request.cache_key()
        assert key is not None and len(key) == 64
        assert key == request.cache_key()
        assert key != request.replace(
            policy=WrpkruPolicy.SERIALIZED
        ).cache_key()

    def test_cache_key_none_for_traced_and_prebuilt(self):
        traced = RunRequest(
            workload="557.xz_r (SS)", policy=WrpkruPolicy.SPECMPK,
            trace=TraceOptions(enabled=True),
        )
        assert traced.cache_key() is None

    def test_cache_key_matches_runcache_module(self):
        from repro.perf.runcache import cache_key

        request = RunRequest(workload="557.xz_r (SS)",
                             policy=WrpkruPolicy.SPECMPK, **FAST)
        assert request.cache_key() == cache_key(request)


class TestFastForward:
    def test_fastforward_ipc_close_to_timed_warmup(self):
        slow = execute(RunRequest(
            workload="557.xz_r (SS)", policy=WrpkruPolicy.SPECMPK,
            instructions=3000, warmup=2000,
        ))
        fast = execute(RunRequest(
            workload="557.xz_r (SS)", policy=WrpkruPolicy.SPECMPK,
            instructions=3000, warmup=2000, fastforward=True,
        ))
        assert fast.metadata.fastforward is True
        assert fast.metadata.as_dict()["fastforward"] is True
        assert fast.ipc == pytest.approx(slow.ipc, rel=0.05)

    def test_fastforwarded_warmup_not_in_topdown(self):
        """Skipped instructions never enter the pipeline, so a traced
        fast-forward run accounts exactly the measured window."""
        result = execute(RunRequest(
            workload="557.xz_r (SS)", policy=WrpkruPolicy.SPECMPK,
            instructions=2000, warmup=1500, fastforward=True,
            trace=TraceOptions(enabled=True),
        ))
        report = result.topdown()
        assert report.reconciles(tolerance=0.01)
        assert report.total_cycles == result.stats.cycles
        # Roughly one commit slot per retired instruction: warmup
        # instructions would inflate this well past the budget.
        assert result.stats.instructions_retired <= 2000 + 64

    def test_policy_ordering_preserved_under_fastforward(self):
        ipcs = {}
        for policy in WrpkruPolicy:
            ipcs[policy] = execute(RunRequest(
                workload="505.mcf_r (SS)", policy=policy,
                instructions=4000, warmup=3000, fastforward=True,
            )).ipc
        assert (ipcs[WrpkruPolicy.SERIALIZED]
                < ipcs[WrpkruPolicy.NONSECURE_SPEC])
        assert (ipcs[WrpkruPolicy.SERIALIZED]
                <= ipcs[WrpkruPolicy.SPECMPK]
                <= ipcs[WrpkruPolicy.NONSECURE_SPEC])


class TestWorkloadBuildCache:
    def test_grid_reuses_builds_per_label_and_mode(self):
        from repro.harness.api import _build_cached

        _build_cached.cache_clear()
        sweep_policies(
            labels=["557.xz_r (SS)", "505.mcf_r (SS)"],
            policies=(WrpkruPolicy.SERIALIZED, WrpkruPolicy.SPECMPK),
            instructions=FAST["instructions"],
            parallel=False,
        )
        info = _build_cached.cache_info()
        # 2 labels x 1 mode built once each; the other 2 grid points hit.
        assert info.misses == 2
        assert info.hits == 2

    def test_cached_workload_is_same_object(self):
        from repro.harness.api import _build_cached

        first = _build_cached("557.xz_r (SS)", InstrumentMode.PROTECTED)
        again = _build_cached("557.xz_r (SS)", InstrumentMode.PROTECTED)
        other = _build_cached("557.xz_r (SS)", InstrumentMode.NONE)
        assert first is again
        assert other is not first

    def test_grid_reuses_builds_per_profile_and_mode(self, monkeypatch):
        from repro.harness.api import _build_cached

        monkeypatch.setenv("REPRO_CACHE", "0")  # every point must build
        _build_cached.cache_clear()
        sweep_policies(
            labels=[seed_variant("557.xz_r (SS)", 1),
                    seed_variant("505.mcf_r (SS)", 1)],
            policies=(WrpkruPolicy.SERIALIZED, WrpkruPolicy.SPECMPK),
            instructions=FAST["instructions"],
            parallel=False,
        )
        info = _build_cached.cache_info()
        assert info.misses == 2
        assert info.hits == 2

    def test_profile_key_is_by_value(self):
        import dataclasses

        from repro.harness.api import _build_cached, resolve_workload

        variant = seed_variant("557.xz_r (SS)", 1)
        first = _build_cached(variant, InstrumentMode.PROTECTED)
        # An equal profile built elsewhere is the same key.
        twin = dataclasses.replace(variant)
        assert twin is not variant
        assert _build_cached(twin, InstrumentMode.PROTECTED) is first
        assert resolve_workload(RunRequest(
            workload=twin, policy=WrpkruPolicy.SPECMPK,
        )) is first
        # Another seed, the canonical label or another mode is not.
        for workload, mode in (
            (seed_variant("557.xz_r (SS)", 2), InstrumentMode.PROTECTED),
            ("557.xz_r (SS)", InstrumentMode.PROTECTED),
            (variant, InstrumentMode.NONE),
        ):
            assert _build_cached(workload, mode) is not first


class TestRunWorkloadCompat:
    def test_keyword_call_returns_simstats(self):
        stats = run_workload(
            "557.xz_r (SS)", WrpkruPolicy.SERIALIZED,
            mode=InstrumentMode.NONE, **FAST,
        )
        assert isinstance(stats, SimStats)
        assert stats.ipc > 0

    def test_request_call_returns_runresult(self):
        result = run_workload(RunRequest(
            workload="557.xz_r (SS)", policy=WrpkruPolicy.SPECMPK, **FAST,
        ))
        assert isinstance(result, RunResult)

    def test_request_with_extra_args_rejected(self):
        request = RunRequest(workload="557.xz_r (SS)",
                             policy=WrpkruPolicy.SPECMPK)
        with pytest.raises(TypeError):
            run_workload(request, WrpkruPolicy.SPECMPK)

    def test_positional_optionals_rejected_with_replacement(self):
        """The deprecation cycle is complete: positional optionals
        raise and the message spells out the exact keyword call."""
        with pytest.raises(TypeError, match="keyword-only") as excinfo:
            run_workload(
                "557.xz_r (SS)", WrpkruPolicy.SERIALIZED,
                InstrumentMode.NONE, **FAST,
            )
        assert "mode=" in str(excinfo.value)
        assert "run_workload(" in str(excinfo.value)

    def test_too_many_positionals_rejected(self):
        with pytest.raises(TypeError, match="at most"):
            run_workload(
                "557.xz_r (SS)", WrpkruPolicy.SERIALIZED,
                InstrumentMode.NONE, 1000, 100, None, "extra",
            )

    def test_keyword_equals_request_result(self):
        stats = run_workload(
            "520.omnetpp_r (SS)", WrpkruPolicy.SPECMPK, **FAST,
        )
        result = execute(RunRequest(
            workload="520.omnetpp_r (SS)", policy=WrpkruPolicy.SPECMPK,
            **FAST,
        ))
        assert stats.cycles == result.stats.cycles
        assert stats.instructions_retired == result.stats.instructions_retired


class TestSweepTemplate:
    def test_sweep_with_request_template(self):
        template = RunRequest(
            workload="", policy=WrpkruPolicy.SERIALIZED,
            mode=InstrumentMode.NONE, **FAST,
        )
        results = sweep_policies(
            labels=["557.xz_r (SS)"],
            policies=(WrpkruPolicy.SERIALIZED, WrpkruPolicy.SPECMPK),
            request=template,
        )
        by_policy = results["557.xz_r (SS)"]
        assert set(by_policy) == {
            WrpkruPolicy.SERIALIZED, WrpkruPolicy.SPECMPK,
        }
        assert all(stats.ipc > 0 for stats in by_policy.values())


class TestTypedRows:
    def test_row_quacks_like_a_dict(self):
        row = Fig3Row(workload="w", speedup=0.25,
                      rename_stall_fraction=0.125)
        assert row["workload"] == "w"
        assert row.speedup == 0.25
        assert list(row) == ["workload", "speedup", "rename_stall_fraction"]
        assert "speedup" in row
        assert row.get("missing", 42) == 42
        assert dict(row.items()) == row.as_dict()

    def test_renamed_export_keys(self):
        row = Table3Row(parameter="BTB", value="8192 entries")
        assert row.as_dict() == {"Parameter": "BTB", "Value": "8192 entries"}
        assert row["Parameter"] == "BTB"

    def test_render_table_accepts_rows(self):
        rows = [
            Fig3Row(workload="a", speedup=0.1, rename_stall_fraction=0.2),
            Fig3Row(workload="b", speedup=0.3, rename_stall_fraction=0.4),
        ]
        text = render_table(rows, title="T")
        assert "workload" in text and "0.300" in text

    def test_export_csv_accepts_rows_and_stats(self, tmp_path):
        rows = [Fig3Row(workload="a", speedup=0.1,
                        rename_stall_fraction=0.2)]
        path = tmp_path / "rows.csv"
        export_csv(rows, path)
        header, line = path.read_text().strip().splitlines()
        assert header == "workload,speedup,rename_stall_fraction"
        assert line.startswith("a,0.1")

        stats = SimStats()
        stats.cycles = 10
        stats.instructions_retired = 20
        stats_path = tmp_path / "stats.csv"
        export_csv([stats], stats_path)
        text = stats_path.read_text()
        assert "ipc" in text and "2.0" in text


class TestSimStatsMerge:
    def test_merge_adds_counters_and_histograms(self):
        a, b = SimStats(), SimStats()
        a.cycles, b.cycles = 100, 50
        a.instructions_retired, b.instructions_retired = 200, 40
        a.load_latency_trace = [(1, 4)]
        b.load_latency_trace = [(2, 300)]
        a.occupancy_histograms = {"active_list": {3: 10, 4: 5}}
        b.occupancy_histograms = {"active_list": {4: 2}, "rob_pkru": {0: 50}}
        merged = a.merge(b)
        assert merged.cycles == 150
        assert merged.instructions_retired == 240
        assert merged.ipc == 240 / 150
        assert merged.load_latency_trace == [(1, 4), (2, 300)]
        assert merged.occupancy_histograms == {
            "active_list": {3: 10, 4: 7},
            "rob_pkru": {0: 50},
        }
        # Inputs untouched.
        assert a.cycles == 100 and b.cycles == 50

    def test_as_dict_excludes_structured_fields(self):
        stats = SimStats()
        flat = stats.as_dict()
        assert "load_latency_trace" not in flat
        assert "occupancy_histograms" not in flat
        assert set(BUCKETS).isdisjoint(flat)  # buckets live on the report
        assert "ipc" in flat

    def test_merge_covers_wrongpath_and_dispatch_counters(self):
        a, b = SimStats(), SimStats()
        a.wrpkru_dispatched, b.wrpkru_dispatched = 5, 7
        a.instructions_wrongpath_executed = 9
        b.instructions_wrongpath_executed = 4
        a.spec_fills, b.spec_fills = 11, 2
        a.wrongpath_fills, b.wrongpath_fills = 3, 1
        merged = a.merge(b)
        assert merged.wrpkru_dispatched == 12
        assert merged.instructions_wrongpath_executed == 13
        assert merged.spec_fills == 13
        assert merged.wrongpath_fills == 4

    def test_as_dict_round_trips_every_scalar(self):
        """Every scalar field (including the new wrong-path/provenance
        counters) survives as_dict -> setattr reconstruction -> merge
        against the original without drift."""
        stats = SimStats()
        for index, name in enumerate(vars(stats)):
            if name in SimStats._NON_SCALAR:
                continue
            setattr(stats, name, index + 1)
        flat = stats.as_dict()
        for name in ("wrpkru_dispatched", "instructions_wrongpath_executed",
                     "spec_fills", "wrongpath_fills"):
            assert flat[name] == getattr(stats, name)
        rebuilt = SimStats()
        for name, value in flat.items():
            if name in ("ipc", "wrpkru_per_kilo", "rename_stall_fraction"):
                continue  # derived properties, not settable state
            setattr(rebuilt, name, value)
        assert rebuilt.as_dict() == stats.as_dict()
        doubled = stats.merge(rebuilt)
        for name, value in stats.as_dict().items():
            if name in ("ipc", "wrpkru_per_kilo", "rename_stall_fraction"):
                continue
            assert doubled.as_dict()[name] == 2 * value
