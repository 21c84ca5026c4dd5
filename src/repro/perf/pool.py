"""One persistent worker pool for every parallel sweep.

``sweep_policies`` and ``simpoint.weighted_ipc`` used to create a fresh
:class:`~concurrent.futures.ProcessPoolExecutor` per call, paying
worker spawn + interpreter warmup on every grid.  This module keeps a
single shared pool alive for the process and hands out slots to every
caller:

* :func:`get_pool` — create-on-first-use, reused until the requested
  worker count changes (``max_workers`` argument or ``REPRO_WORKERS``).
* :func:`run_longest_first` — submit a batch ordered longest-first (so
  the slowest tasks start immediately and the tail of the schedule is
  short) and return results in the original order.
* :func:`prewarm_pool` — queue best-effort per-worker warmup tasks that
  build a workload and pre-translate its block cache and
  :class:`~repro.core.schedule.TimingSchedule`, so shard dispatch does
  not pay first-touch translation inside the measured window.

Workers start through :func:`_pool_initializer`, which imports the hot
modules once per process — the simulator, scheduler, block translator
and harness — so the first real task does not pay module import latency
on top of its own work.
"""

from __future__ import annotations

import atexit
from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from typing import Callable, List, Optional, Sequence

from .envflag import env_int

_pool: Optional[ProcessPoolExecutor] = None
_pool_workers: Optional[int] = None


def _pool_initializer() -> None:
    """Run in every worker at spawn: import the hot modules up front.

    Imports only — no workload is known yet at pool creation, and the
    initializer must never fail (a raising initializer breaks the whole
    executor).  Per-workload translation happens in
    :func:`_prewarm_task`.
    """
    import repro.core.pipeline  # noqa: F401
    import repro.core.schedule  # noqa: F401
    import repro.harness.api  # noqa: F401
    import repro.isa.blockcache  # noqa: F401
    import repro.obs.collect  # noqa: F401


def _prewarm_task(task) -> bool:
    """Worker-side warmup: build one workload and translate it.

    After this runs in a worker, the process holds the built
    :class:`~repro.workloads.generator.GeneratedWorkload`, its pristine
    base memory image, the program's shared
    :class:`~repro.isa.blockcache.BlockCache` entry points and its
    :class:`~repro.core.schedule.TimingSchedule` — everything a shard
    measurement touches on its first instruction.
    """
    workload, mode_value = task
    from ..core.schedule import shared_schedule
    from ..isa.blockcache import shared_cache
    from .timeshard import _rebuild_cached

    built, _base = _rebuild_cached(workload, mode_value)
    shared_cache(built.program)
    shared_schedule(built.program)
    return True


def prewarm_pool(
    workload, mode_value: str, max_workers: Optional[int] = None,
) -> List[Future]:
    """Queue one warmup task per pool worker (best effort, non-blocking).

    *workload* is a profile label or a
    :class:`~repro.workloads.profiles.WorkloadProfile`.

    ``ProcessPoolExecutor`` offers no per-worker targeting, so this
    submits as many tasks as there are workers: an idle pool warms every
    process; a busy pool warms whichever workers pick the tasks up.  The
    futures are returned for callers that want to wait, but the normal
    pattern is fire-and-forget — the warmup tasks sit ahead of the real
    batch in the queue, so each worker warms itself before its first
    shard.
    """
    pool = get_pool(max_workers)
    return [
        pool.submit(_prewarm_task, (workload, mode_value))
        for _ in range(_pool_workers or 1)
    ]


def resolve_workers(max_workers: Optional[int] = None) -> Optional[int]:
    """Effective worker count: explicit argument, else ``REPRO_WORKERS``,
    else None (the executor's own default, one per CPU)."""
    if max_workers is not None:
        return max_workers
    return env_int("REPRO_WORKERS")


def get_pool(max_workers: Optional[int] = None) -> ProcessPoolExecutor:
    """The shared executor, (re)created when the worker count changes.

    With ``max_workers=None`` any existing pool is reused regardless of
    its size; an explicit count recycles the pool only on mismatch.
    """
    global _pool, _pool_workers
    workers = resolve_workers(max_workers)
    if _pool is None or (workers is not None and workers != _pool_workers):
        if _pool is not None:
            _pool.shutdown(wait=True)
        _pool = ProcessPoolExecutor(
            max_workers=workers, initializer=_pool_initializer
        )
        # Record the actual size so a repeated explicit request matches.
        _pool_workers = _pool._max_workers
    return _pool


def shutdown_pool() -> None:
    """Tear down the shared pool (tests; registered atexit)."""
    global _pool, _pool_workers
    if _pool is not None:
        _pool.shutdown(wait=True)
        _pool = None
        _pool_workers = None


atexit.register(shutdown_pool)


def run_longest_first(
    fn: Callable,
    tasks: Sequence,
    weights: Optional[Sequence[float]] = None,
    max_workers: Optional[int] = None,
    on_result: Optional[Callable] = None,
) -> List:
    """Run ``fn(task)`` for every task on the shared pool.

    Submission order is heaviest-*weights* first — with self-similar
    tasks (same fn, sizes known up front) this is the classic LPT
    schedule, which keeps the stragglers off the end of the run.
    Results come back in the original task order.

    *on_result* is called as ``on_result(index, result)`` from the
    submitting thread the moment each task finishes, in completion
    order — the hook behind live sweep progress reporting
    (:mod:`repro.obs.progress`) and streaming metrics aggregation.
    """
    tasks = list(tasks)
    if not tasks:
        return []
    pool = get_pool(max_workers)
    order = range(len(tasks))
    if weights is not None:
        if len(weights) != len(tasks):
            raise ValueError("weights must match tasks")
        order = sorted(order, key=weights.__getitem__, reverse=True)
    futures = {index: pool.submit(fn, tasks[index]) for index in order}
    if on_result is not None:
        indices = {future: index for index, future in futures.items()}
        for future in as_completed(indices):
            on_result(indices[future], future.result())
    return [futures[index].result() for index in range(len(tasks))]
