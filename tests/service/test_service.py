"""Tests for the batch scheduler and execute_batch (repro.service)."""

import tempfile

import pytest

from repro.core import WrpkruPolicy
from repro.harness import RunRequest, execute_many
from repro.perf.runcache import default_cache
from repro.service import (
    BatchError,
    JobState,
    SweepService,
    execute_batch,
    lpt_weight,
    result_from_payload,
    result_payload,
)
from repro.service import scheduler as scheduler_module

FAST = dict(instructions=400, warmup=100, metrics=True)


def grid(labels, policies):
    return [
        RunRequest(workload=label, policy=policy, **FAST)
        for label in labels
        for policy in policies
    ]


class TestExecuteBatch:
    def test_results_in_submit_order(self):
        requests = grid(
            ["557.xz_r (SS)"],
            [WrpkruPolicy.SERIALIZED, WrpkruPolicy.SPECMPK],
        )
        results = execute_batch(requests).wait()
        assert len(results) == 2
        for request, result in zip(requests, results):
            assert result.metadata.policy is request.policy
            assert result.stats.ipc > 0

    def test_stream_reports_every_request_once(self):
        requests = grid(
            ["557.xz_r (SS)", "505.mcf_r (SS)"], [WrpkruPolicy.SPECMPK],
        )
        seen = {}
        for index, result, error in execute_batch(requests).stream():
            seen[index] = (result, error)
        assert sorted(seen) == [0, 1]
        assert all(err is None for _, err in seen.values())

    def test_status_counts_on_durable_spool(self, tmp_path):
        requests = grid(["557.xz_r (SS)"], [WrpkruPolicy.SPECMPK])
        handle = execute_batch(requests, spool=tmp_path / "spool")
        status = handle.status()
        assert status["total"] == 1 and status["pending"] == 1
        handle.wait()
        status = handle.status()
        assert status["done"] == 1 and status["pending"] == 0
        assert handle.done()

    def test_duplicate_requests_collapse_to_one_job(self):
        request = RunRequest(workload="557.xz_r (SS)",
                             policy=WrpkruPolicy.SPECMPK, **FAST)
        handle = execute_batch([request, request])
        results = handle.wait()
        assert handle.deduped == 1
        assert len(results) == 2
        assert results[0].stats.cycles == results[1].stats.cycles

    def test_merged_metrics_covers_every_job(self):
        requests = grid(
            ["557.xz_r (SS)"],
            [WrpkruPolicy.SERIALIZED, WrpkruPolicy.SPECMPK],
        )
        handle = execute_batch(requests)
        results = handle.wait()
        merged = handle.merged_metrics()
        expected = sum(r.stats.instructions_retired for r in results)
        assert merged.counters["core.instructions_retired"] == expected


@pytest.fixture
def empty_tmpdir(tmp_path, monkeypatch):
    """A fresh ``$TMPDIR``, which :mod:`tempfile` resolves to as well."""
    directory = tmp_path / "tmpdir"
    directory.mkdir()
    monkeypatch.setenv("TMPDIR", str(directory))
    monkeypatch.setattr(tempfile, "tempdir", str(directory))
    return directory


class TestInMemoryBatch:
    """A batch without ``spool=`` keeps its job state in memory."""

    def test_writes_no_file(self, empty_tmpdir):
        requests = grid(["557.xz_r (SS)"], [WrpkruPolicy.SPECMPK])
        during = []
        handle = execute_batch(requests, on_result=lambda *_: during.append(
            list(empty_tmpdir.rglob("*"))
        ))
        assert handle.wait()[0].stats.ipc > 0
        assert handle.status()["done"] == 1
        assert during == [[]]
        assert list(empty_tmpdir.rglob("*")) == []

    def test_failing_hook_leaves_nothing_behind(self, empty_tmpdir):
        def hook(index, result, error):
            raise RuntimeError("hook failed")

        requests = grid(["557.xz_r (SS)"], [WrpkruPolicy.SPECMPK])
        with pytest.raises(RuntimeError, match="hook failed"):
            execute_batch(requests, on_result=hook).wait()
        assert list(empty_tmpdir.iterdir()) == []


class TestDedupAcceptance:
    def test_second_submission_simulates_nothing(self, monkeypatch,
                                                 tmp_path):
        """The ISSUE acceptance bar: a 3x3 label x policy batch
        submitted twice through execute_batch performs zero duplicate
        simulations, verified via the run-cache hit/miss metrics."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        requests = grid(
            ["557.xz_r (SS)", "505.mcf_r (SS)", "520.omnetpp_r (SS)"],
            list(WrpkruPolicy),
        )
        assert len(requests) == 9
        cache = default_cache()
        assert (cache.hits, cache.misses) == (0, 0)

        execute_batch(requests).wait()
        assert cache.misses == 9  # every grid point simulated once
        assert cache.hits == 0

        handle = execute_batch(requests)
        results = handle.wait()
        assert cache.misses == 9  # zero duplicate simulations
        assert cache.hits == 9    # every point served from the cache
        assert all(r.stats.ipc > 0 for r in results)


class TestFailureSemantics:
    def _failing_batch(self, monkeypatch, max_retries, spool=None):
        real_execute = scheduler_module.execute
        calls = {"bad": 0}

        def flaky(request, *, cache=None):
            if request.policy is WrpkruPolicy.SERIALIZED:
                calls["bad"] += 1
                raise RuntimeError("injected fault")
            return real_execute(request, cache=cache)

        monkeypatch.setattr(scheduler_module, "execute", flaky)
        requests = grid(
            ["557.xz_r (SS)"],
            [WrpkruPolicy.SERIALIZED, WrpkruPolicy.SPECMPK],
        )
        handle = execute_batch(
            requests, cache=False, max_retries=max_retries, spool=spool,
        )
        return handle, requests, calls

    def test_batcherror_carries_failures(self, monkeypatch):
        handle, requests, calls = self._failing_batch(monkeypatch, 1)
        with pytest.raises(BatchError, match="injected fault"):
            handle.wait()
        assert calls["bad"] == 2  # initial attempt + one retry
        bad_id = requests[0].cache_key()
        assert "RuntimeError: injected fault" in handle._errors[bad_id]

    def test_partial_results_on_request(self, monkeypatch, tmp_path):
        handle, requests, calls = self._failing_batch(
            monkeypatch, 0, spool=tmp_path / "spool",
        )
        results = handle.wait(raise_on_error=False)
        assert results[0] is None
        assert results[1] is not None and results[1].stats.ipc > 0
        assert calls["bad"] == 1  # no retry budget
        status = handle.job_status(0)
        assert status.state is JobState.FAILED
        assert "injected fault" in status.error

    def test_retry_succeeds_on_second_attempt(self, monkeypatch):
        real_execute = scheduler_module.execute
        attempts = {"n": 0}

        def once_flaky(request, *, cache=None):
            attempts["n"] += 1
            if attempts["n"] == 1:
                raise RuntimeError("transient")
            return real_execute(request, cache=cache)

        monkeypatch.setattr(scheduler_module, "execute", once_flaky)
        request = RunRequest(workload="557.xz_r (SS)",
                             policy=WrpkruPolicy.SPECMPK, **FAST)
        handle = execute_batch([request], cache=False, max_retries=1)
        results = handle.wait()
        assert results[0].stats.ipc > 0
        assert attempts["n"] == 2
        assert handle._service.counters["retried"] == 1


class TestSweepService:
    def test_cross_batch_dedup_via_spool(self, tmp_path):
        requests = grid(["557.xz_r (SS)"], [WrpkruPolicy.SPECMPK])
        service = SweepService(tmp_path / "spool")
        service.submit(requests).wait()
        assert service.spool.counts()["done"] == 1

        resumed = SweepService(tmp_path / "spool")
        handle = resumed.submit(requests)
        assert handle.deduped == 1
        results = handle.wait()
        assert resumed.counters["from_spool"] == 1
        assert resumed.counters["executed"] == 0
        assert results[0].stats.ipc > 0

    def test_serve_recovers_interrupted_jobs(self, tmp_path):
        requests = grid(["557.xz_r (SS)"], [WrpkruPolicy.SPECMPK])
        service = SweepService(tmp_path / "spool")
        handle = service.submit(requests)
        # Simulate a worker that died mid-run: claimed but never done.
        assert service.spool.claim(handle.job_ids[0]) is not None
        assert service.spool.counts()["running"] == 1
        settled = service.serve(once=True)
        assert service.spool.counts()["done"] == 1
        assert settled[handle.job_ids[0]].stats.ipc > 0

    def test_lpt_weight_orders_policies(self):
        base = RunRequest(workload="557.xz_r (SS)",
                          policy=WrpkruPolicy.SERIALIZED, **FAST)
        serialized = lpt_weight(base)
        specmpk = lpt_weight(base.replace(policy=WrpkruPolicy.SPECMPK))
        nonsecure = lpt_weight(
            base.replace(policy=WrpkruPolicy.NONSECURE_SPEC)
        )
        assert serialized > specmpk > nonsecure


class TestShardedJobs:
    """Time-sharded requests through the batch scheduler."""

    def test_sharded_job_settles_with_exact_fold(self, monkeypatch,
                                                 tmp_path):
        monkeypatch.setenv("REPRO_PARALLEL", "0")  # inline shard dispatch
        request = RunRequest(
            workload="557.xz_r (SS)", policy=WrpkruPolicy.SPECMPK,
            time_shards=3, shard_warmup=200, **FAST,
        )
        service = SweepService(tmp_path / "spool")
        handle = service.submit([request])
        [result] = handle.wait()
        # Exact-budget windows tile the measured stream exactly.
        assert result.stats.instructions_retired == FAST["instructions"]
        assert result.metrics.meta["time_shards"] == 3
        # Shard progress stamped on the job doc survives settling.
        doc = service.spool.job_doc(handle.job_ids[0])
        assert doc["shards_done"] == doc["shards_total"] == 3
        assert service.spool.counts()["done"] == 1

    def test_mixed_batch_interleaves_whole_and_sharded(self, monkeypatch,
                                                       tmp_path):
        monkeypatch.setenv("REPRO_PARALLEL", "0")
        whole = RunRequest(workload="557.xz_r (SS)",
                           policy=WrpkruPolicy.SPECMPK, **FAST)
        sharded = whole.replace(time_shards=2, shard_warmup=100)
        service = SweepService(tmp_path / "spool")
        results = service.submit([whole, sharded]).wait()
        assert len(results) == 2
        assert results[0].stats.ipc > 0
        assert results[1].stats.instructions_retired == FAST["instructions"]
        # Same workload/policy/budgets, different K: distinct jobs.
        assert whole.cache_key() != sharded.cache_key()

    def test_sharded_round_trips_the_spool_encoding(self, tmp_path):
        from repro.service.spool import decode_request, encode_request

        request = RunRequest(
            workload="557.xz_r (SS)", policy=WrpkruPolicy.SPECMPK,
            time_shards=5, shard_warmup=1_500, **FAST,
        )
        doc = encode_request(request)
        assert doc["time_shards"] == 5 and doc["shard_warmup"] == 1_500
        assert decode_request(doc) == request

    def test_shard_failure_retries_the_whole_job(self, monkeypatch,
                                                 tmp_path):
        from repro.perf import timeshard

        monkeypatch.setenv("REPRO_PARALLEL", "0")
        # The job must actually dispatch shards: a run-cache hit (from
        # an identical request in another test) would bypass the pool.
        monkeypatch.setenv("REPRO_CACHE", "0")
        real_measure = timeshard.measure_shard
        attempts = {"n": 0}

        def flaky_measure(job):
            attempts["n"] += 1
            if attempts["n"] == 1:
                raise RuntimeError("transient shard failure")
            return real_measure(job)

        monkeypatch.setattr(timeshard, "measure_shard", flaky_measure)
        request = RunRequest(
            workload="557.xz_r (SS)", policy=WrpkruPolicy.SPECMPK,
            time_shards=2, shard_warmup=100, **FAST,
        )
        service = SweepService(tmp_path / "spool", max_retries=1)
        [result] = service.submit([request]).wait()
        assert result.stats.instructions_retired == FAST["instructions"]
        assert service.counters["retried"] == 1


class TestResultPayload:
    def test_round_trip_is_scalar_complete(self):
        request = RunRequest(workload="557.xz_r (SS)",
                             policy=WrpkruPolicy.SPECMPK, **FAST)
        [result] = execute_batch([request]).wait()
        clone = result_from_payload(result_payload(result, cached=False))
        assert clone.stats.as_dict() == result.stats.as_dict()
        assert clone.metadata == result.metadata
        assert clone.metrics.to_json() == result.metrics.to_json()
        assert clone.trace is None


class TestExecuteMany:
    def test_results_align_with_requests(self):
        requests = grid(
            ["557.xz_r (SS)"],
            [WrpkruPolicy.SERIALIZED, WrpkruPolicy.SPECMPK],
        )
        results = execute_many(requests)
        assert len(results) == 2
        for request, result in zip(requests, results):
            assert result.metadata.policy is request.policy

    def test_on_result_fires_per_submit_index(self):
        requests = grid(
            ["557.xz_r (SS)", "505.mcf_r (SS)"], [WrpkruPolicy.SPECMPK],
        )
        seen = []
        execute_many(
            requests, on_result=lambda i, r, e: seen.append((i, e)),
        )
        assert sorted(seen) == [(0, None), (1, None)]

    def test_max_workers_reaches_the_pool(self, monkeypatch):
        calls = {}

        def fake_pool(fn, tasks, weights=None, max_workers=None,
                      on_result=None):
            calls["max_workers"] = max_workers
            for index, task in enumerate(tasks):
                on_result(index, fn(task))
            return []

        monkeypatch.setenv("REPRO_CACHE", "0")
        monkeypatch.setattr(scheduler_module, "run_longest_first",
                            fake_pool)
        requests = grid(
            ["557.xz_r (SS)"],
            [WrpkruPolicy.SERIALIZED, WrpkruPolicy.SPECMPK],
        )
        execute_many(requests, parallel=True, max_workers=3)
        assert calls["max_workers"] == 3
