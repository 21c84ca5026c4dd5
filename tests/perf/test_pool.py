"""The shared worker pool (:mod:`repro.perf.pool`)."""

import os
import threading
import time

import pytest

from repro.perf import pool


def _double(value):
    """Module-level so worker processes can unpickle it."""
    return value * 2


def _pid_after(seconds):
    """Sleep, then name the process that ran the task."""
    time.sleep(seconds)
    return os.getpid()


def _fail_on_three(value):
    if value == 3:
        raise ValueError("task 3 failed")
    return value


def _environment(name):
    return os.environ.get(name)


@pytest.fixture
def two_cpus(monkeypatch):
    """An affinity mask of two CPUs, whatever the host has."""
    monkeypatch.setattr(pool, "available_cpus", lambda: 2)


@pytest.fixture(autouse=True)
def _fresh_pool():
    pool.shutdown_pool()
    yield
    pool.shutdown_pool()


def test_run_longest_first_preserves_order():
    tasks = list(range(8))
    weights = [8 - task for task in tasks]  # heaviest first ≠ task order
    assert pool.run_longest_first(_double, tasks, weights=weights) == [
        task * 2 for task in tasks
    ]


def test_run_longest_first_no_weights():
    assert pool.run_longest_first(_double, [3, 1, 2]) == [6, 2, 4]


def test_run_longest_first_empty():
    assert pool.run_longest_first(_double, []) == []


def test_run_longest_first_weight_mismatch():
    with pytest.raises(ValueError):
        pool.run_longest_first(_double, [1, 2], weights=[1.0])


def test_pool_is_reused():
    first = pool.get_pool(2)
    assert pool.get_pool() is first        # None reuses any live pool
    assert pool.get_pool(2) is first       # matching count reuses
    assert pool.get_pool(1) is not first   # mismatch recycles


def test_shutdown_resets():
    first = pool.get_pool(1)
    pool.shutdown_pool()
    assert pool.get_pool(1) is not first


def test_pool_initializer_is_safe():
    """The initializer must never raise (a raising initializer breaks
    the whole executor); it is imports only and callable anywhere."""
    pool._pool_initializer()


def test_prewarm_task_builds_and_translates():
    """In-process check of the worker-side warmup body: after it runs,
    the (label, mode) workload memo and the program's shared block
    cache and timing schedule all exist in this process."""
    from repro.core.schedule import shared_schedule
    from repro.isa.blockcache import shared_cache
    from repro.perf.timeshard import _rebuild_cached

    assert pool._prewarm_task(("557.xz_r (SS)", "protected")) is True
    workload, base = _rebuild_cached("557.xz_r (SS)", "protected")
    assert base is not None
    # Memoized singletons: the prewarm already built these, so asking
    # again must return the same objects, not re-translate.
    assert shared_cache(workload.program) is shared_cache(workload.program)
    assert shared_schedule(workload.program) is shared_schedule(
        workload.program
    )


def test_prewarm_pool_submits_one_task_per_worker():
    pool.get_pool(2)
    futures = pool.prewarm_pool("557.xz_r (SS)", "protected")
    assert len(futures) == 2
    assert all(future.result(timeout=120) is True for future in futures)


def test_resolve_workers(monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    assert pool.resolve_workers() is None
    assert pool.resolve_workers(3) == 3
    monkeypatch.setenv("REPRO_WORKERS", "5")
    assert pool.resolve_workers() == 5
    assert pool.resolve_workers(2) == 2  # explicit argument wins


def test_on_result_fires_once_per_task_on_the_calling_thread(two_cpus):
    seen = []
    results = pool.run_longest_first(
        _double, list(range(6)), weights=[1, 6, 2, 5, 3, 4],
        on_result=lambda index, result: seen.append(
            (index, result, threading.get_ident())
        ),
    )
    assert results == [0, 2, 4, 6, 8, 10]
    assert sorted(index for index, _, _ in seen) == list(range(6))
    assert all(result == 2 * index for index, result, _ in seen)
    assert {thread for _, _, thread in seen} == {threading.get_ident()}


def test_caller_runs_tasks_while_the_pool_leaves_a_cpu_idle(two_cpus):
    pids = pool.run_longest_first(_pid_after, [0.05] * 6)
    assert pool._pool_workers == 1  # N - 1 workers; the caller is slot N
    assert os.getpid() in pids
    assert set(pids) - {os.getpid()}


def test_caller_runs_nothing_when_the_pool_fills_every_cpu(two_cpus):
    pool.get_pool(2)
    pids = pool.run_longest_first(_pid_after, [0.01] * 6)
    assert os.getpid() not in pids


def test_worker_is_refilled_while_the_caller_runs(two_cpus):
    """The worker takes the heaviest task, the caller the next (1 s);
    every short task left must go to the worker, handed over as it
    frees up rather than after the caller's long task."""
    durations = [0.02, 1.0, 0.02, 0.02, 0.02, 0.02]
    weights = [3, 2, 1, 1, 1, 1]
    pids = pool.run_longest_first(_pid_after, durations, weights=weights)
    assert pids[1] == os.getpid()
    assert os.getpid() not in pids[:1] + pids[2:]


def test_every_task_runs_once_across_many_slots(monkeypatch):
    """Four workers plus the caller on a shortened switch interval pull
    200 tiny tasks from one queue: none is lost or run twice."""
    monkeypatch.setattr(pool, "available_cpus", lambda: 8)
    pool.get_pool(4)
    delivered = []
    results = pool.run_longest_first(
        _double, list(range(200)), weights=[task % 7 for task in range(200)],
        on_result=lambda index, result: delivered.append(index),
    )
    assert results == [2 * task for task in range(200)]
    assert sorted(delivered) == list(range(200))


def test_worker_exception_reaches_the_caller(two_cpus):
    pool.get_pool(2)  # every task runs in a worker
    with pytest.raises(ValueError, match="task 3 failed"):
        pool.run_longest_first(_fail_on_three, list(range(6)))


def test_one_cpu_creates_no_pool(monkeypatch):
    monkeypatch.setattr(pool, "available_cpus", lambda: 1)
    pids = pool.run_longest_first(_pid_after, [0.0] * 4)
    assert pids == [os.getpid()] * 4
    assert pool.prewarm_pool("557.xz_r (SS)", "protected") == []
    assert pool._pool is None


def test_parallel_rule(monkeypatch):
    monkeypatch.delenv("REPRO_PARALLEL", raising=False)
    monkeypatch.setattr(pool, "available_cpus", lambda: 1)
    assert pool.parallel_enabled() is False
    monkeypatch.setattr(pool, "available_cpus", lambda: 4)
    assert pool.parallel_enabled() is True
    monkeypatch.setenv("REPRO_PARALLEL", "0")
    assert pool.parallel_enabled() is False
    assert pool.parallel_enabled(True) is True  # explicit argument wins


def test_pool_follows_the_repro_environment(monkeypatch, tmp_path):
    """Workers read REPRO_* variables as they were at fork, so a pool
    started under another REPRO_* environment is replaced."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "a"))
    first = pool.get_pool(1)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "b"))
    second = pool.get_pool()
    assert second is not first
    assert second.submit(_environment, "REPRO_CACHE_DIR").result() == str(
        tmp_path / "b"
    )
    assert pool.get_pool() is second  # same environment: reused
