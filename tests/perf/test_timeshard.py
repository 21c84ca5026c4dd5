"""Time-parallel detailed simulation (:mod:`repro.perf.timeshard`).

The accuracy contract under test:

* architectural counters (:data:`EXACT_FIELDS`) of a K-sharded run
  equal the exact-budget monolithic window bit for bit, for every K
  and across a sweep of shard-warmup lengths;
* IPC stays within the documented 1% bound of the classic monolithic
  run at the default shard warmup;
* ``K=1`` never enters the sharded path, so unsharded requests stay
  byte-identical to the pre-sharding code;
* the run-cache key contains K (and the shard warmup only when it
  matters), so sharded and exact results can never satisfy each other.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import WrpkruPolicy
from repro.core.config import CoreConfig
from repro.core.pipeline import Simulator
from repro.harness.api import (
    RequestError,
    RunRequest,
    TraceOptions,
    execute,
    resolve_workload,
)
from repro.perf.timeshard import (
    EXACT_FIELDS,
    ShardOutcome,
    execute_sharded,
    fold_outcomes,
    plan_shards,
)
from repro.workloads import seed_variant

LABEL = "505.mcf_r (SS)"
FAST = dict(instructions=6_000, warmup=1_000)


@pytest.fixture(autouse=True)
def _serial_and_uncached(monkeypatch):
    """Shard inline (no pool spin-up) and never touch the run cache."""
    monkeypatch.setenv("REPRO_PARALLEL", "0")
    monkeypatch.setenv("REPRO_CACHE", "0")
    monkeypatch.delenv("REPRO_TIME_SHARDS", raising=False)
    monkeypatch.delenv("REPRO_SHARD_WARMUP", raising=False)


def request(**overrides) -> RunRequest:
    params = dict(
        workload=LABEL, policy=WrpkruPolicy.SPECMPK, metrics=True, **FAST
    )
    params.update(overrides)
    return RunRequest(**params)


def exact_window_reference(instructions: int, warmup: int, config=None,
                           workload=LABEL):
    """Monolithic run with *exact* budgets (the sharded fold's truth).

    The classic ``Simulator.run`` overshoots each budget end by up to
    ``commit_width - 1`` (the final cycle retires its whole commit
    group); shard windows retire exactly their budget, so the committed
    stream they tile is this run's, not the classic run's.
    """
    workload = resolve_workload(request(workload=workload))
    sim = Simulator(
        workload.program,
        config or CoreConfig(wrpkru_policy=WrpkruPolicy.SPECMPK),
        initial_pkru=workload.initial_pkru,
    )
    sim.prewarm_tlb()
    result = sim.run_window(
        max_cycles=200 * (instructions + warmup + 1),
        instructions=instructions,
        warmup_instructions=warmup,
    )
    assert result.fault is None
    return result.stats


# -- planning ---------------------------------------------------------------


@given(
    warmup=st.integers(0, 5_000),
    instructions=st.integers(1, 20_000),
    shards=st.integers(1, 8),
    shard_warmup=st.integers(0, 3_000),
)
@settings(max_examples=200, deadline=None)
def test_plan_tiles_the_window_exactly(
    warmup, instructions, shards, shard_warmup
):
    windows = plan_shards(warmup, instructions, shards, shard_warmup)
    assert 1 <= len(windows) <= shards
    position = warmup
    lengths = []
    for index, window in enumerate(windows):
        assert window.index == index
        assert window.start == position          # gap-free tiling
        assert window.length >= 1                # clamped: never empty
        assert 0 <= window.checkpoint_position <= window.start
        assert window.detailed_warmup == min(shard_warmup, window.start)
        position += window.length
        lengths.append(window.length)
    assert position == warmup + instructions     # covers the full budget
    assert max(lengths) - min(lengths) <= 1      # balanced


def test_plan_rejects_nonpositive_shards():
    with pytest.raises(ValueError):
        plan_shards(0, 1_000, 0)


def test_plan_clamps_shards_to_instructions():
    windows = plan_shards(0, 3, 8, 0)
    assert [w.length for w in windows] == [1, 1, 1]


# -- request surface --------------------------------------------------------


def test_k1_is_byte_identical_to_unsharded():
    plain = execute(request(), cache=False)
    explicit_k1 = execute(request(time_shards=1), cache=False)
    assert vars(explicit_k1.stats) == vars(plain.stats)
    assert explicit_k1.metadata == plain.metadata


def test_env_default_resolves_and_tracing_is_immune(monkeypatch):
    monkeypatch.setenv("REPRO_TIME_SHARDS", "3")
    assert request().resolved_time_shards() == 3
    traced = request(trace=TraceOptions(enabled=True))
    assert traced.resolved_time_shards() == 1
    monkeypatch.delenv("REPRO_TIME_SHARDS")
    assert request().resolved_time_shards() == 1


def test_traced_sharded_request_is_rejected():
    with pytest.raises(RequestError):
        request(time_shards=2, trace=TraceOptions(enabled=True))


def test_invalid_shard_budgets_are_rejected():
    with pytest.raises(RequestError):
        request(time_shards=0)
    with pytest.raises(RequestError):
        request(shard_warmup=-1)


def test_cache_key_contains_shard_count():
    keys = {
        request().cache_key(),
        request(time_shards=2).cache_key(),
        request(time_shards=4).cache_key(),
    }
    assert len(keys) == 3
    # K=1 explicitly is the monolithic run — same identity as unsharded.
    assert request(time_shards=1).cache_key() == request().cache_key()


def test_shard_warmup_keys_only_sharded_requests():
    # Unsharded runs never consume the shard warmup, so it must not
    # split their cache identity (REPRO_SHARD_WARMUP would otherwise
    # invalidate every plain cached run).
    assert (
        request(shard_warmup=500).cache_key() == request().cache_key()
    )
    assert (
        request(time_shards=2, shard_warmup=500).cache_key()
        != request(time_shards=2).cache_key()
    )


# -- accuracy ---------------------------------------------------------------


@pytest.mark.parametrize("shard_warmup", [0, 250, 1_000])
def test_architectural_counters_merge_exactly(shard_warmup):
    """Differential sweep over warmup lengths: for every shard-warmup
    prefix the folded architectural counters equal the exact-budget
    monolithic window bit for bit (the warmup prefix is measured out)."""
    reference = exact_window_reference(**FAST)
    sharded = execute_sharded(
        request(time_shards=3, shard_warmup=shard_warmup), parallel=False
    )
    for field in EXACT_FIELDS:
        assert getattr(sharded.stats, field) == getattr(reference, field), (
            field,
            shard_warmup,
        )
    assert sharded.stats.instructions_retired == FAST["instructions"]


def test_fold_is_invariant_in_k():
    by_k = {
        k: execute_sharded(request(time_shards=k), parallel=False)
        for k in (2, 4)
    }
    for field in EXACT_FIELDS:
        assert getattr(by_k[2].stats, field) == getattr(by_k[4].stats, field)


def test_ipc_within_documented_bound():
    mono = execute(request(), cache=False)
    sharded = execute_sharded(request(time_shards=4), parallel=False)
    error = abs(sharded.stats.ipc - mono.stats.ipc) / mono.stats.ipc
    assert error <= 0.01, f"sharded IPC off by {error:.2%} (bound: 1%)"


def test_load_latency_trace_folds_in_interval_order():
    config = CoreConfig(
        wrpkru_policy=WrpkruPolicy.SPECMPK, record_load_latencies=True
    )
    reference = exact_window_reference(**FAST, config=config)
    sharded = execute_sharded(
        request(config=config, time_shards=3), parallel=False
    )
    # Same committed loads in the same order (addresses are a pure
    # function of the committed stream; latencies are microarch state).
    assert [a for a, _ in sharded.stats.load_latency_trace] == [
        a for a, _ in reference.load_latency_trace
    ]


def test_profile_addressed_run_shards_on_the_pool():
    """Regression: a seed-variant request once shipped its built
    workload to the pool, whose opcode lambdas do not pickle.  It now
    ships ``("profile", profile, mode)`` with detached checkpoints, and
    each worker rebuilds the program through the shared build cache."""
    from repro.perf.pool import shutdown_pool
    from repro.perf.timeshard import prepare_request

    variant = seed_variant("520.omnetpp_r (SS)", 1)
    req = request(workload=variant, time_shards=2)
    jobs, _metadata, _shards = prepare_request(req)
    assert [job.workload_ref for job in jobs] == [
        ("profile", variant, "protected")
    ] * 2
    assert all(job.detached for job in jobs)
    try:
        sharded = execute_sharded(req, parallel=True, max_workers=1)
    finally:
        shutdown_pool()
    reference = exact_window_reference(**FAST, workload=variant)
    for field in EXACT_FIELDS:
        assert getattr(sharded.stats, field) == getattr(reference, field), (
            field
        )
    assert sharded.stats.instructions_retired == FAST["instructions"]


# -- results and metrics ----------------------------------------------------


def test_sharded_metrics_fold(monkeypatch):
    sharded = execute_sharded(request(time_shards=3), parallel=False)
    assert sharded.metrics is not None
    assert sharded.metrics.meta["time_shards"] == 3
    assert "shard" not in sharded.metrics.meta  # per-shard meta dropped
    assert sharded.metrics.gauges["core.ipc"] == pytest.approx(
        sharded.stats.ipc
    )


def test_execute_routes_sharded_requests_through_the_cache(
    monkeypatch, tmp_path
):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_CACHE", "1")
    from repro.perf.runcache import default_cache

    req = request(time_shards=2)
    cold = execute(req)
    warm = execute(req)
    assert default_cache().hits >= 1
    assert vars(warm.stats) == vars(cold.stats)
    assert warm.metrics.meta["time_shards"] == 2


def test_fold_requires_at_least_one_outcome():
    with pytest.raises(ValueError):
        fold_outcomes([], 4)


def test_fold_orders_outcomes_by_index():
    first = exact_window_reference(instructions=100, warmup=0)
    second = exact_window_reference(instructions=200, warmup=0)
    stats, _ = fold_outcomes(
        [ShardOutcome(index=1, stats=second),
         ShardOutcome(index=0, stats=first)],
        2,
    )
    assert stats.instructions_retired == 300
    assert stats.load_latency_trace == (
        first.load_latency_trace + second.load_latency_trace
    )
