"""Workload execution harness (legacy keyword surface + batch entry).

The canonical single-run API lives in :mod:`repro.harness.api`: build
a :class:`~repro.harness.api.RunRequest`, call
:func:`~repro.harness.api.execute`, get a
:class:`~repro.harness.api.RunResult`.  The documented *batch* entry
point is :func:`execute_many`, a thin wrapper over the sweep service's
local mode (:func:`repro.service.execute_batch`) — every multi-run
driver in the repo (``sweep_policies`` and the experiment functions on
top of it) submits through that one path.

``run_workload`` keeps the original keyword signature working; its
optional parameters are keyword-only (the positional form completed
its deprecation cycle and now raises ``TypeError`` naming the exact
replacement call).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Union

from ..core.config import CoreConfig, WrpkruPolicy
from ..core.stats import SimStats
from ..obs.progress import ProgressReporter, maybe_reporter
from ..obs.snapshot import MetricsAccumulator, MetricsSnapshot
from ..perf.pool import parallel_enabled
from ..perf.runcache import default_cache
from ..workloads.generator import GeneratedWorkload
from ..workloads.instrument import InstrumentMode
from ..workloads.profiles import ALL_PROFILES, WorkloadProfile
from .api import (
    DEFAULT_INSTRUCTIONS,
    DEFAULT_WARMUP,
    RunRequest,
    RunResult,
    TraceOptions,
    execute,
    measurement_budget,
)

#: Old positional order of ``run_workload``'s optional parameters,
#: kept to name the exact keyword replacement in the rejection error.
_LEGACY_POSITIONAL = ("mode", "instructions", "warmup", "config")


def run_workload(
    workload: Union[RunRequest, str, WorkloadProfile, GeneratedWorkload],
    policy: Optional[WrpkruPolicy] = None,
    *legacy_args,
    mode: Optional[InstrumentMode] = None,
    instructions: Optional[int] = None,
    warmup: Optional[int] = None,
    config: Optional[CoreConfig] = None,
    trace: Optional[TraceOptions] = None,
    time_shards: Optional[int] = None,
) -> Union[SimStats, RunResult]:
    """Simulate one workload under one policy.

    Two calling conventions are supported:

    * ``run_workload(request)`` with a single :class:`RunRequest` —
      returns the full :class:`RunResult` (stats + trace handle +
      metadata).
    * ``run_workload(workload, policy, mode=..., instructions=...,
      warmup=..., config=...)`` — the legacy keyword surface; returns
      the bare :class:`SimStats` as it always did.  The optional
      parameters are **keyword-only**: the positional form warned
      through its deprecation period and is now rejected with the
      exact replacement call.
    """
    if isinstance(workload, RunRequest):
        if policy is not None or legacy_args:
            raise TypeError(
                "run_workload(RunRequest) takes no further arguments"
            )
        return execute(workload)
    if policy is None:
        raise TypeError("run_workload() missing required argument: 'policy'")
    if legacy_args:
        if len(legacy_args) > len(_LEGACY_POSITIONAL):
            raise TypeError(
                f"run_workload() takes at most "
                f"{2 + len(_LEGACY_POSITIONAL)} positional arguments"
            )
        replacement = ", ".join(
            f"{name}={value!r}"
            for name, value in zip(_LEGACY_POSITIONAL, legacy_args)
        )
        raise TypeError(
            "run_workload() optional parameters are keyword-only (the "
            "positional form was deprecated and has been removed); call "
            f"run_workload({workload!r}, {policy}, {replacement}) instead"
        )
    request = RunRequest(
        workload=workload,
        policy=policy,
        mode=InstrumentMode.PROTECTED if mode is None else mode,
        instructions=instructions,
        warmup=warmup,
        config=config,
        trace=trace if trace is not None else TraceOptions(),
        time_shards=time_shards,
    )
    return execute(request).stats


def execute_many(
    requests: Iterable[RunRequest],
    *,
    max_workers: Optional[int] = None,
    cache: bool = True,
    parallel: Optional[bool] = None,
    spool=None,
    max_retries: int = 0,
    on_result=None,
    raise_on_error: bool = True,
) -> List[Optional[RunResult]]:
    """Execute a batch of requests; results in submit order.

    The documented batch entry point — a thin wrapper over the sweep
    service's local mode (:func:`repro.service.execute_batch`), so
    ad-hoc batches, ``sweep_policies`` grids and the ``repro
    submit``/``repro serve`` CLI all share exactly one submission path:
    requests are deduplicated against the content-addressed run cache
    before dispatch and fan out over the shared worker pool and this
    process in LPT order unless *parallel* is off (default:
    :func:`~repro.perf.pool.parallel_enabled` — ``REPRO_PARALLEL``,
    else more than one CPU).

    *cache* disables run-cache dedup and memoization for the batch;
    *spool* makes the batch durable in an on-disk spool directory;
    *on_result* is called as ``on_result(index, result, error)`` in
    completion order; *raise_on_error* = False returns None for failed
    requests instead of raising
    :class:`~repro.service.batch.BatchError`.
    """
    from ..service import execute_batch  # lazy: service builds on harness

    handle = execute_batch(
        list(requests),
        spool=spool,
        cache=cache,
        parallel=parallel,
        max_workers=max_workers,
        max_retries=max_retries,
        on_result=on_result,
    )
    return handle.wait(raise_on_error=raise_on_error)


def sweep_policies(
    labels: Optional[Iterable[str]] = None,
    policies: Iterable[WrpkruPolicy] = tuple(WrpkruPolicy),
    mode: InstrumentMode = InstrumentMode.PROTECTED,
    instructions: Optional[int] = None,
    config: Optional[CoreConfig] = None,
    parallel: Optional[bool] = None,
    request: Optional[RunRequest] = None,
    max_workers: Optional[int] = None,
    progress: Optional[ProgressReporter] = None,
    metrics: Optional[MetricsAccumulator] = None,
    time_shards: Optional[int] = None,
) -> Dict[str, Dict[WrpkruPolicy, SimStats]]:
    """Run every workload under every policy (the Fig. 9 grid).

    The workload binary is rebuilt deterministically per run, so all
    microarchitectures execute identical code.  The grid is one
    :func:`execute_many` batch: unless *parallel* is off (default:
    :func:`~repro.perf.pool.parallel_enabled` — ``REPRO_PARALLEL``,
    else more than one CPU) it fans out over the shared worker pool
    (:mod:`repro.perf.pool`) and this process, expensive points first;
    *max_workers* (or ``REPRO_WORKERS``) bounds the pool size.

    When *request* is given it acts as the template for every grid
    point (mode, budgets, config and trace options are taken from it);
    *labels* and *policies* still define the grid itself.

    *time_shards* splits every grid point into that many checkpointed
    intervals dispatched over the same pool
    (:mod:`repro.perf.timeshard`); the default ``None`` defers to the
    template request and ultimately ``REPRO_TIME_SHARDS`` (default 1,
    the exact monolithic path), so figure outputs are unchanged unless
    sharding is asked for.

    Observability hooks: pass a *progress* reporter (or set
    ``REPRO_PROGRESS=1`` to get a default one on stderr) for a live
    runs-completed/ETA heartbeat, and a *metrics*
    :class:`~repro.obs.MetricsAccumulator` to aggregate every run's
    snapshot plus sweep-level counters (task count, run-cache hit/miss
    deltas) across the grid.
    """
    if labels is None:
        labels = [profile.label for profile in ALL_PROFILES]
    labels = list(labels)
    policies = tuple(policies)
    parallel = parallel_enabled(parallel)
    if request is None:
        template = RunRequest(
            workload="", policy=policies[0] if policies else
            WrpkruPolicy.SERIALIZED, mode=mode,
            instructions=instructions, config=config,
        )
    else:
        template = request
    if time_shards is not None:
        template = template.replace(time_shards=time_shards)
    results: Dict[str, Dict[WrpkruPolicy, SimStats]] = {
        label: {} for label in labels
    }
    grid = [(label, policy) for label in labels for policy in policies]
    tasks = [
        template.replace(workload=label, policy=policy)
        for label, policy in grid
    ]
    if progress is None:
        progress = maybe_reporter(len(tasks), "sweep")
    cache = default_cache()
    hits_before, misses_before = cache.hits, cache.misses

    def _record(index: int, result, error) -> None:
        if result is None:
            return  # failures surface via BatchError after the batch
        label, policy = grid[index]
        results[label][policy] = result.stats
        if metrics is not None:
            metrics.add(result.metrics)
        if progress is not None:
            progress.advance(f"{label}/{policy.value}")

    execute_many(
        tasks, parallel=parallel, max_workers=max_workers,
        on_result=_record,
    )
    if metrics is not None:
        # Sweep-level telemetry rides in via merge() so it does not
        # inflate the per-run ``aggregate.runs`` count.
        metrics.merge(MetricsSnapshot(
            counters={
                "perf.sweep.tasks": len(tasks),
                "perf.runcache.hits": cache.hits - hits_before,
                "perf.runcache.misses": cache.misses - misses_before,
            },
            gauges={"perf.sweep.parallel": 1 if parallel else 0},
        ))
    if progress is not None:
        progress.finish()
    return results


def normalized_ipc(
    results: Dict[str, Dict[WrpkruPolicy, SimStats]],
    baseline: WrpkruPolicy = WrpkruPolicy.SERIALIZED,
) -> Dict[str, Dict[WrpkruPolicy, float]]:
    """IPC of every policy normalised to *baseline* (Fig. 9's y-axis)."""
    normalized: Dict[str, Dict[WrpkruPolicy, float]] = {}
    for label, by_policy in results.items():
        base = by_policy[baseline].ipc
        normalized[label] = {
            policy: stats.ipc / base for policy, stats in by_policy.items()
        }
    return normalized


def geomean(values: List[float]) -> float:
    """Geometric mean (the paper's average speedup aggregation).

    Accumulates in log space: a running ``product *=`` underflows to
    0.0 (or overflows to inf) long before realistic sweep sizes — e.g.
    a few thousand ratios around 1e-2 — while ``fsum`` of logs is exact
    to the last bit.
    """
    if not values:
        return 0.0
    if any(value == 0.0 for value in values):
        return 0.0
    return math.exp(
        math.fsum(math.log(value) for value in values) / len(values)
    )
