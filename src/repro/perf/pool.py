"""One persistent worker pool for every parallel sweep.

``sweep_policies`` and ``simpoint.weighted_ipc`` used to create a fresh
:class:`~concurrent.futures.ProcessPoolExecutor` per call, paying
worker spawn + interpreter warmup on every grid.  This module keeps a
single shared pool alive for the process and hands out slots to every
caller:

* :func:`parallel_enabled` — the one rule for whether work fans out:
  ``REPRO_PARALLEL`` when set, else whether the process's CPU affinity
  mask holds more than one CPU.
* :func:`get_pool` — create-on-first-use, reused until the requested
  worker count (``max_workers`` argument or ``REPRO_WORKERS``) or the
  ``REPRO_*`` environment changes.
* :func:`run_longest_first` — run a batch from one longest-first queue
  (so the slowest tasks start immediately and the tail of the schedule
  is short) on the pool's workers *and* the calling process, and
  return results in the original order.
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
import collections
import contextlib
import functools
import os
import queue
import sys
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence

from .envflag import env_flag, env_int

_pool: Optional[ProcessPoolExecutor] = None
_pool_workers: Optional[int] = None
#: The ``REPRO_*`` variables the live pool's workers were forked with.
_pool_env: Optional[Dict[str, str]] = None


def available_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS
    has one (``taskset``, container cpusets), else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity API
        return os.cpu_count() or 1


def parallel_enabled(parallel: Optional[bool] = None) -> bool:
    """Whether a batch fans out over the pool: the one parallel rule.

    An explicit *parallel* wins, then ``REPRO_PARALLEL``; otherwise
    work is parallel exactly when the process may run on more than one
    CPU.  Batches (:mod:`repro.service`) and time shards
    (:mod:`repro.perf.timeshard`) both ask here.
    """
    if parallel is not None:
        return parallel
    return env_flag("REPRO_PARALLEL", default=available_cpus() > 1)


#: GIL switch interval (seconds) while the caller runs tasks beside
#: pool workers; the interpreter default is 5 ms.
SHARED_SWITCH_INTERVAL = 0.0002

_switch_lock = threading.Lock()
_switch_users = 0
_switch_saved = 0.0


@contextlib.contextmanager
def _short_switch_interval():
    """Shorten the GIL switch interval while the caller shares a batch.

    The executor's result thread takes the GIL from the caller's
    CPU-bound task several times per finished task (read the result,
    hand the next task over, wake its feeder).  At the default interval
    each take waits out a 5 ms slice, so a worker's refill lags by tens
    of milliseconds, and the waiting threads wake on — and preempt —
    the worker's CPU.  Nested and concurrent batches share one saved
    interval, restored when the last of them ends.
    """
    global _switch_users, _switch_saved
    with _switch_lock:
        if _switch_users == 0:
            _switch_saved = sys.getswitchinterval()
            sys.setswitchinterval(min(_switch_saved, SHARED_SWITCH_INTERVAL))
        _switch_users += 1
    try:
        yield
    finally:
        with _switch_lock:
            _switch_users -= 1
            if _switch_users == 0:
                sys.setswitchinterval(_switch_saved)


def _repro_env() -> Dict[str, str]:
    return {
        name: value for name, value in os.environ.items()
        if name.startswith("REPRO_")
    }


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
    shard.  Where :func:`run_longest_first` would use no pool (one
    CPU), none is created and nothing is queued.
    """
    pool = _batch_pool(max_workers)
    if pool is None:
        return []
    return [
        pool.submit(_prewarm_task, (workload, mode_value))
        for _ in range(_pool_workers)
    ]


def resolve_workers(max_workers: Optional[int] = None) -> Optional[int]:
    """Requested worker count: explicit argument, else ``REPRO_WORKERS``,
    else None (the default size, see :func:`get_pool`)."""
    if max_workers is not None:
        return max_workers
    return env_int("REPRO_WORKERS")


def get_pool(max_workers: Optional[int] = None) -> ProcessPoolExecutor:
    """The shared executor, (re)created when the worker count or the
    ``REPRO_*`` environment changes.

    With ``max_workers=None`` any existing pool is reused regardless of
    its size, and a new one gets one worker per CPU but one (at least
    one): the process calling :func:`run_longest_first` is the last
    slot.  An explicit count recycles the pool only on mismatch.

    Workers read ``REPRO_*`` variables (cache directory and switch,
    metrics, shard warmup, ...) in their own environment, which is the
    one they were forked with, so a pool started under a different
    ``REPRO_*`` environment is replaced rather than reused.
    """
    global _pool, _pool_workers, _pool_env
    workers = resolve_workers(max_workers)
    env = _repro_env()
    if _pool is not None and (
        env != _pool_env
        or (workers is not None and workers != _pool_workers)
    ):
        shutdown_pool()
    if _pool is None:
        if workers is None:
            workers = max(1, available_cpus() - 1)
        _pool = ProcessPoolExecutor(
            max_workers=workers, initializer=_pool_initializer
        )
        _pool_workers = workers
        _pool_env = env
    return _pool


def _batch_pool(max_workers: Optional[int]) -> Optional[ProcessPoolExecutor]:
    """The pool a batch fans out to, or None when the caller is the only
    slot: no pool is live, no size was asked for, and the process may
    use one CPU."""
    if (
        _pool is None and resolve_workers(max_workers) is None
        and available_cpus() < 2
    ):
        return None
    return get_pool(max_workers)


def shutdown_pool() -> None:
    """Tear down the shared pool (tests; registered atexit)."""
    global _pool, _pool_workers, _pool_env
    if _pool is not None:
        _pool.shutdown(wait=True)
        _pool = None
        _pool_workers = None
        _pool_env = None


atexit.register(shutdown_pool)


def run_longest_first(
    fn: Callable,
    tasks: Sequence,
    weights: Optional[Sequence[float]] = None,
    max_workers: Optional[int] = None,
    on_result: Optional[Callable] = None,
) -> List:
    """Run ``fn(task)`` for every task on the shared pool and here.

    Every slot takes the heaviest remaining task from one queue ordered
    by *weights* (heaviest first) — with self-similar tasks (same fn,
    sizes known up front) this is the classic LPT schedule, which keeps
    the stragglers off the end of the run.  The calling process is one
    of the N slots of an N-CPU affinity mask:

    * each pool worker holds one task at a time and is handed the next
      the moment it finishes, from the executor's result thread, so a
      long task in the caller never leaves a worker idle;
    * the caller runs a task itself whenever it has no finished result
      to deliver, but only while the pool leaves a CPU idle — a pool
      sized to fill every CPU gets every task, and a 1-CPU process
      creates no pool and runs everything inline.

    Results come back in the original task order.  *on_result* is
    called as ``on_result(index, result)`` on the calling thread once
    per task, in completion order — the hook behind live sweep progress
    reporting (:mod:`repro.obs.progress`) and streaming metrics
    aggregation.  An exception raised by *fn*, in a worker or here,
    reaches the caller, and no further task is started.
    """
    tasks = list(tasks)
    if not tasks:
        return []
    order = range(len(tasks))
    if weights is not None:
        if len(weights) != len(tasks):
            raise ValueError("weights must match tasks")
        order = sorted(order, key=weights.__getitem__, reverse=True)
    pending = collections.deque(order)  # popleft/clear are atomic
    finished: queue.SimpleQueue = queue.SimpleQueue()
    pool = _batch_pool(max_workers)
    workers = 0 if pool is None else _pool_workers
    caller_runs = workers < available_cpus()

    def take() -> Optional[int]:
        try:
            return pending.popleft()
        except IndexError:
            return None

    def feed() -> None:
        """Start the next queued task on a free worker slot."""
        index = take()
        if index is None:
            return
        try:
            future = pool.submit(fn, tasks[index])
        except Exception as error:  # noqa: BLE001 - broken/closed pool
            future = Future()
            future.set_exception(error)
        future.add_done_callback(functools.partial(done, index))

    def done(index: int, future: Future) -> None:
        feed()
        finished.put((index, future))

    results: List = [None] * len(tasks)
    shared = workers and caller_runs
    with _short_switch_interval() if shared else contextlib.nullcontext():
        try:
            for _ in range(workers):
                feed()
            for _ in range(len(tasks)):
                index = take() if caller_runs and finished.empty() else None
                if index is not None:
                    result = fn(tasks[index])
                else:
                    index, future = finished.get()
                    result = future.result()
                results[index] = result
                if on_result is not None:
                    on_result(index, result)
        finally:
            pending.clear()  # on an error: start nothing more
    return results
