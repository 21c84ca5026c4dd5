"""Time-parallel detailed simulation: checkpoint-sharded full runs.

A single detailed run is deterministic, so its measurement window can
be cut at instruction-count boundaries and the pieces simulated
concurrently (the Sniper/pFSA interval-parallelism idea).  One
block-cached *functional* pass walks the program once, emitting a
:class:`~repro.state.Checkpoint` at each shard boundary (one
detailed-warmup window before the shard's measurement start, exactly
like the SimPoint flow); the K detailed windows then fan out over the
shared worker pool and their :class:`~repro.core.stats.SimStats` /
:class:`~repro.obs.MetricsSnapshot` fold back in interval order.

Accuracy model (enforced by ``tests/perf/test_timeshard.py`` and
``repro bench fullrun``):

* **Architectural counters merge exactly.**  Shard *i* measures
  exactly the committed instructions ``[start_i, start_i + len_i)`` and
  the shard windows tile the monolithic window ``[warmup, warmup +
  instructions)``, so every counter that is a pure function of the
  committed stream (``instructions_retired``, ``wrpkru_retired``,
  ``loads_retired`` …, :data:`EXACT_FIELDS`) sums to the monolithic
  value, bit for bit.
* **Microarchitectural stats land within a bound.**  Cycle counts (and
  IPC) depend on pipeline/cache/predictor state carried across the cut;
  each shard rebuilds it from the checkpoint's warm-touch summary plus
  a configurable detailed-warmup prefix (excluded from the stats
  window).  The documented bound is ≤1% IPC error at the default shard
  warmup; stall/fill breakdowns are bounded but looser (see
  ``docs/performance.md`` §8 for when *not* to shard).

``K=1`` never enters this module — :func:`repro.harness.api.execute`
keeps the monolithic path byte-identical to the unsharded code.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.config import CoreConfig
from ..core.stats import SimStats
from ..obs.snapshot import MetricsSnapshot
from ..state import (
    Checkpoint,
    WarmTouch,
    attach_base,
    detach_base,
    pristine_image,
    resume_simulator,
    take_checkpoint,
)
from ..workloads.profiles import WorkloadProfile
from .envflag import env_int
from .pool import parallel_enabled, prewarm_pool, run_longest_first

#: Default detailed-warmup prefix per shard (instructions), clamped to
#: the request's own warmup budget; ``REPRO_SHARD_WARMUP`` overrides.
DEFAULT_SHARD_WARMUP = 2_000

#: SimStats counters that are pure functions of the committed
#: instruction stream — sharded runs must reproduce these *exactly*
#: (differential-tested, and gated in ``repro bench fullrun``).
EXACT_FIELDS = (
    "instructions_retired",
    "wrpkru_retired",
    "rdpkru_retired",
    "branches_retired",
    "loads_retired",
    "stores_retired",
)

#: Derived metrics gauges recomputed from the folded stats after the
#: shard snapshots merge (gauge merge takes max, which is wrong for
#: whole-run rates).
_DERIVED_GAUGES = {
    "core.ipc": lambda stats: stats.ipc,
    "core.wrpkru_per_kilo": lambda stats: stats.wrpkru_per_kilo,
    "core.rename_stall_fraction": lambda stats: stats.rename_stall_fraction,
}


def default_shard_warmup() -> int:
    """``REPRO_SHARD_WARMUP``, else :data:`DEFAULT_SHARD_WARMUP`."""
    return env_int("REPRO_SHARD_WARMUP", DEFAULT_SHARD_WARMUP)


@dataclasses.dataclass(frozen=True)
class ShardWindow:
    """One shard's place along the committed instruction stream."""

    index: int
    #: Committed-instruction position where measurement starts.
    start: int
    #: Measured instructions in this shard.
    length: int
    #: Functional position of the shard's checkpoint
    #: (``max(0, start - shard_warmup)``).
    checkpoint_position: int

    @property
    def detailed_warmup(self) -> int:
        """Timing-simulated (stats-excluded) prefix instructions."""
        return self.start - self.checkpoint_position


def plan_shards(
    warmup: int, instructions: int, shards: int,
    shard_warmup: Optional[int] = None,
) -> List[ShardWindow]:
    """Tile ``[warmup, warmup + instructions)`` into shard windows.

    Lengths differ by at most one instruction (remainder spread over
    the leading shards); *shards* is clamped so no window is empty.
    Every window's detailed warmup is ``min(shard_warmup, start)`` —
    shard boundaries near program entry simply warm up from entry.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if shard_warmup is None:
        shard_warmup = default_shard_warmup()
    shards = max(1, min(shards, instructions or 1))
    base, remainder = divmod(instructions, shards)
    windows: List[ShardWindow] = []
    start = warmup
    for index in range(shards):
        length = base + (1 if index < remainder else 0)
        windows.append(ShardWindow(
            index=index,
            start=start,
            length=length,
            checkpoint_position=max(0, start - min(shard_warmup, start)),
        ))
        start += length
    return windows


@dataclasses.dataclass
class ShardJob:
    """Everything one worker needs to measure one shard (picklable).

    ``workload_ref`` is ``("label", label, mode_value)`` for canonical
    workloads and ``("profile", profile, mode_value)`` for
    profile-addressed ones (seed variants) — the worker rebuilds the
    workload (and the checkpoint's base memory image) deterministically
    instead of receiving multiple megabytes of pickled state — or
    ``("object", workload)`` for pre-built workload objects, which ship
    whole.
    """

    window: ShardWindow
    workload_ref: Tuple
    config: CoreConfig
    checkpoint: Checkpoint
    #: True when ``checkpoint`` was detached from its base image and
    #: the worker must rebuild + re-attach it.
    detached: bool
    collect_metrics: bool
    meta: Optional[Dict[str, object]] = None


@dataclasses.dataclass
class ShardOutcome:
    """What one measured shard sends back to the folding side."""

    index: int
    stats: SimStats
    metrics: Optional[MetricsSnapshot] = None


@dataclasses.dataclass
class PreparedShards:
    """Output of :func:`prepare_shards`: dispatchable jobs + context."""

    jobs: List[ShardJob]
    windows: List[ShardWindow]
    #: Windows the program halted before reaching (no checkpoint, no
    #: job) — their instructions simply do not exist in the run.
    unreachable: List[ShardWindow]


def _workload_ref(request, workload) -> Tuple:
    if isinstance(request.workload, str) and request.workload:
        return ("label", request.workload, request.mode.value)
    if isinstance(request.workload, WorkloadProfile):
        return ("profile", request.workload, request.mode.value)
    return ("object", workload)


@functools.lru_cache(maxsize=16)
def _rebuild_cached(workload, mode_value: str):
    """Worker-side (label or profile, mode) -> (workload, pristine base
    image).

    Per-process memo over the shared build cache: the first shard of a
    run pays the deterministic rebuild, every later shard landing on
    the same worker reuses it.
    """
    from ..harness.api import _build_cached
    from ..workloads.instrument import InstrumentMode

    built = _build_cached(workload, InstrumentMode(mode_value))
    return built, pristine_image(built.program.regions)


def _resolve_ref(ref: Tuple):
    """``(workload, base_image_or_None)`` for a :class:`ShardJob` ref."""
    if ref[0] == "object":
        return ref[1], None
    return _rebuild_cached(ref[1], ref[2])


def prepare_shards(request, workload, windows: Sequence[ShardWindow],
                   metadata_dict: Optional[Dict[str, object]] = None,
                   ) -> PreparedShards:
    """One functional pass: a checkpoint (and job) per shard window.

    Reuses the fused-profiler plumbing: a single block-cached
    :meth:`~repro.isa.emulator.Emulator.run_fast` walk with a
    :class:`~repro.state.WarmTouch` collector, snapshotting at each
    boundary.  Checkpoint memory is CoW against the pristine base image
    captured before the first instruction, and — for label- and
    profile-addressed workloads — shipped *detached* from it (dirty
    pages only).
    """
    from ..isa.emulator import make_emulator

    emulator = make_emulator(workload)
    base = emulator.state.memory.snapshot_image()
    warm = WarmTouch()
    ref = _workload_ref(request, workload)
    detachable = ref[0] != "object"
    collect_metrics = request.resolved_metrics()

    jobs: List[ShardJob] = []
    unreachable: List[ShardWindow] = []
    executed = 0
    for window in sorted(windows, key=lambda w: w.checkpoint_position):
        position = window.checkpoint_position
        if position > executed:
            executed += emulator.run_fast(position - executed, warm=warm)
        if emulator.state.halted or executed < position:
            unreachable.append(window)
            continue
        checkpoint = take_checkpoint(
            emulator, label=f"shard {window.index}", warm=warm
        )
        if detachable:
            checkpoint = detach_base(checkpoint, base)
        jobs.append(ShardJob(
            window=window,
            workload_ref=ref,
            config=request.resolved_config(),
            checkpoint=checkpoint,
            detached=detachable,
            collect_metrics=collect_metrics,
            meta=dict(metadata_dict) if metadata_dict is not None else None,
        ))
    return PreparedShards(
        jobs=jobs, windows=list(windows), unreachable=unreachable
    )


def measure_shard(job: ShardJob) -> ShardOutcome:
    """Resume one shard's checkpoint and measure its window.

    Module-level (picklable) so the shared process pool can run it;
    also the inline path when sharding runs serially.
    """
    from ..obs.collect import collect_run_metrics

    workload, base = _resolve_ref(job.workload_ref)
    checkpoint = job.checkpoint
    if job.detached:
        if base is None:
            base = pristine_image(workload.program.regions)
        checkpoint = attach_base(checkpoint, base)
    window = job.window
    sim = resume_simulator(workload.program, checkpoint, config=job.config)
    result = sim.run_window(
        max_cycles=200 * (window.length + window.detailed_warmup + 1),
        instructions=window.length,
        warmup_instructions=window.detailed_warmup,
    )
    if result.fault is not None:
        raise RuntimeError(
            f"shard {window.index} faulted at [{window.start}, "
            f"{window.start + window.length}): {result.fault}"
        )
    metrics = None
    if job.collect_metrics:
        meta = dict(job.meta or {})
        meta["shard"] = window.index
        metrics = collect_run_metrics(sim, meta=meta)
    return ShardOutcome(
        index=window.index, stats=result.stats, metrics=metrics
    )


def shard_weight(job: ShardJob) -> float:
    """LPT submission weight: detailed instructions this shard runs."""
    return float(job.window.length + job.window.detailed_warmup)


def fold_outcomes(
    outcomes: Sequence[ShardOutcome],
    time_shards: int,
) -> Tuple[SimStats, Optional[MetricsSnapshot]]:
    """Merge shard outcomes in interval order into one stats/snapshot.

    ``SimStats.merge`` and ``MetricsSnapshot.merge`` are associative,
    but folding in interval order keeps concatenated traces (the
    per-load latency trace) in committed-instruction order.  The
    derived rate gauges are recomputed from the folded stats — a merge
    of per-shard rates would be meaningless.
    """
    ordered = sorted(outcomes, key=lambda outcome: outcome.index)
    if not ordered:
        raise ValueError("no shard produced an outcome")
    stats = ordered[0].stats
    for outcome in ordered[1:]:
        stats = stats.merge(outcome.stats)
    merged: Optional[MetricsSnapshot] = None
    snapshots = [o.metrics for o in ordered if o.metrics is not None]
    if snapshots:
        merged = MetricsSnapshot.empty()
        for snapshot in snapshots:
            merged = merged.merge(snapshot)
        for name, derive in _DERIVED_GAUGES.items():
            if name in merged.gauges:
                merged.gauges[name] = derive(stats)
        merged.meta["time_shards"] = time_shards
    return stats, merged


def prepare_request(request, *, prewarm: bool = False,
                    max_workers: Optional[int] = None):
    """Plan and checkpoint one sharded request: ``(jobs, metadata, K)``.

    The shared front half of both sharded execution paths —
    :func:`execute_sharded` inline, and the service scheduler, which
    interleaves the returned jobs with whole runs in its own dispatch.
    With *prewarm* the pool warmup tasks are queued (fire and forget)
    *before* the functional checkpoint pass, so workers build and
    translate the workload while this process walks the program.
    """
    from ..harness.api import RunMetadata, resolve_workload

    shards = request.resolved_time_shards()
    workload = resolve_workload(request)
    instructions = request.resolved_instructions()
    warmup = request.resolved_warmup()
    windows = plan_shards(
        warmup, instructions, shards, request.resolved_shard_warmup()
    )
    ref = _workload_ref(request, workload)
    if prewarm and len(windows) > 1 and ref[0] != "object":
        prewarm_pool(ref[1], ref[2], max_workers=max_workers)
    metadata = RunMetadata(
        label=workload.profile.label,
        policy=request.resolved_config().wrpkru_policy,
        mode=request.mode,
        instructions=instructions,
        warmup=warmup,
        fastforward=request.fastforward,
    )
    prepared = prepare_shards(
        request, workload, windows, metadata_dict=metadata.as_dict()
    )
    return prepared.jobs, metadata, shards


def execute_sharded(request, *, parallel: Optional[bool] = None,
                    max_workers: Optional[int] = None, progress=None):
    """Run one ``time_shards > 1`` request and fold its RunResult.

    The inline counterpart of the service scheduler's shard dispatch:
    plan, one functional checkpoint pass, fan the windows over the
    shared pool (LPT, heaviest window first) unless *parallel* (default:
    :func:`~repro.perf.pool.parallel_enabled`) is off, fold in interval
    order.
    """
    from ..harness.api import RunResult
    from ..obs.progress import maybe_reporter

    parallel = parallel_enabled(parallel)
    jobs, metadata, shards = prepare_request(
        request, prewarm=parallel, max_workers=max_workers
    )
    if progress is None:
        progress = maybe_reporter(len(jobs), "shards")
    on_result = None
    if progress is not None:
        def on_result(index, outcome, _progress=progress):
            _progress.advance(f"shard {outcome.index}")
    if parallel and len(jobs) > 1:
        outcomes = run_longest_first(
            measure_shard, jobs,
            weights=[shard_weight(job) for job in jobs],
            max_workers=max_workers,
            on_result=on_result,
        )
    else:
        outcomes = []
        for job in jobs:
            outcome = measure_shard(job)
            outcomes.append(outcome)
            if on_result is not None:
                on_result(len(outcomes) - 1, outcome)
    if progress is not None:
        progress.finish()
    stats, metrics = fold_outcomes(outcomes, shards)
    return RunResult(stats=stats, metadata=metadata, metrics=metrics)
