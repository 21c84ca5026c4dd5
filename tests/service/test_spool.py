"""Tests for the on-disk job spool (repro.service.spool)."""

import json

import pytest

from repro.core import CoreConfig, WrpkruPolicy
from repro.harness import RequestError, RunRequest, TraceOptions
from repro.service import (
    JobState,
    MemorySpool,
    SpoolDir,
    decode_request,
    default_spool_dir,
    encode_request,
)
from repro.workloads.instrument import InstrumentMode

REQ = RunRequest(
    workload="557.xz_r (SS)", policy=WrpkruPolicy.SPECMPK,
    instructions=500, warmup=100,
)


class TestRequestRoundTrip:
    def test_plain_request_round_trips(self):
        doc = encode_request(REQ)
        json.dumps(doc)  # must be JSON-able
        clone = decode_request(doc)
        assert clone == REQ
        assert clone.cache_key() == REQ.cache_key()

    def test_config_round_trips(self):
        request = REQ.replace(config=CoreConfig(
            wrpkru_policy=WrpkruPolicy.SPECMPK, rob_pkru_size=2,
        ))
        clone = decode_request(json.loads(json.dumps(
            encode_request(request)
        )))
        assert clone.config == request.config
        assert clone.cache_key() == request.cache_key()

    def test_mode_and_flags_round_trip(self):
        request = REQ.replace(
            mode=InstrumentMode.NONE, fastforward=True, metrics=False,
        )
        clone = decode_request(encode_request(request))
        assert clone == request

    def test_profile_workload_round_trips(self):
        # Seed-varied repeats from `repro report` spool as profile
        # documents and rebuild to the same canonical cache key.
        from repro.workloads import seed_variant

        request = REQ.replace(workload=seed_variant("557.xz_r (SS)", 2))
        clone = decode_request(json.loads(json.dumps(
            encode_request(request)
        )))
        assert clone == request
        assert clone.cache_key() == request.cache_key()
        assert clone.cache_key() != REQ.cache_key()

    def test_traced_request_rejected(self):
        with pytest.raises(RequestError, match="traced"):
            encode_request(REQ.replace(trace=TraceOptions(enabled=True)))

    def test_prebuilt_workload_rejected(self):
        from repro.workloads import build_workload, profile_by_label

        workload = build_workload(profile_by_label("557.xz_r (SS)"))
        with pytest.raises(RequestError, match="label"):
            encode_request(REQ.replace(workload=workload))


class TestSpoolStateMachine:
    """Job state transitions; every test runs on the spool fixture."""

    @pytest.fixture
    def spool(self, tmp_path):
        return SpoolDir(tmp_path)

    def test_add_job_uses_cache_key_as_id(self, spool):
        job_id, state, created = spool.add_job(REQ)
        assert job_id == REQ.cache_key()
        assert state is JobState.PENDING and created
        assert spool.state_of(job_id) is JobState.PENDING

    def test_resubmission_is_deduplicated(self, spool):
        first = spool.add_job(REQ)
        again = spool.add_job(REQ)
        assert again == (first[0], JobState.PENDING, False)
        assert spool.counts()["pending"] == 1

    def test_claim_is_exclusive(self, spool):
        job_id, _, _ = spool.add_job(REQ)
        doc = spool.claim(job_id)
        assert doc["id"] == job_id
        assert spool.state_of(job_id) is JobState.RUNNING
        assert spool.claim(job_id) is None  # second claimant loses

    def test_complete_persists_payload_then_flips_state(self, spool):
        job_id, _, _ = spool.add_job(REQ)
        spool.claim(job_id)
        spool.complete(job_id, {"answer": 42})
        assert spool.state_of(job_id) is JobState.DONE
        assert spool.result_payload(job_id) == {"answer": 42}

    def test_retry_requeues_with_attempt_count(self, spool):
        job_id, _, _ = spool.add_job(REQ)
        doc = spool.claim(job_id)
        doc["attempts"] = 1
        doc["error"] = "boom"
        spool.retry(job_id, doc)
        assert spool.state_of(job_id) is JobState.PENDING
        assert spool.job_doc(job_id)["attempts"] == 1

    def test_fail_parks_the_job(self, spool):
        job_id, _, _ = spool.add_job(REQ)
        doc = spool.claim(job_id)
        doc["error"] = "boom"
        spool.fail(job_id, doc)
        assert spool.state_of(job_id) is JobState.FAILED
        assert spool.job_doc(job_id)["error"] == "boom"

    def test_recover_requeues_only_running(self, spool):
        running, _, _ = spool.add_job(REQ)
        done, _, _ = spool.add_job(
            REQ.replace(policy=WrpkruPolicy.SERIALIZED)
        )
        spool.claim(running)
        spool.claim(done)
        spool.complete(done, {})
        assert spool.recover() == [running]
        assert spool.state_of(running) is JobState.PENDING
        assert spool.state_of(done) is JobState.DONE

    def test_jobs_listing_is_sorted(self, spool):
        ids = [
            spool.add_job(REQ.replace(policy=policy))[0]
            for policy in WrpkruPolicy
        ]
        assert spool.jobs(JobState.PENDING) == sorted(ids)

    def test_returned_documents_are_copies(self, spool):
        job_id, _, _ = spool.add_job(REQ)
        spool.claim(job_id)["attempts"] = 99
        assert spool.job_doc(job_id)["attempts"] == 0

    def test_concurrent_claims_have_one_winner(self, spool):
        import sys
        import threading

        ids = [
            spool.add_job(REQ.replace(instructions=500 + index))[0]
            for index in range(400)
        ]
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        won = []

        def worker():
            barrier.wait()
            for job_id in ids:
                if spool.claim(job_id) is not None:
                    won.append(job_id)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker)
                       for _ in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert sorted(won) == sorted(ids)
        assert spool.counts()["running"] == len(ids)


class TestMemorySpoolStateMachine(TestSpoolStateMachine):
    """The same transitions held in memory (``SweepService()``)."""

    @pytest.fixture
    def spool(self):
        return MemorySpool()


class TestBatches:
    @pytest.fixture
    def spool(self, tmp_path):
        return SpoolDir(tmp_path)

    def test_batch_manifest_round_trips(self, spool):
        job_id, _, _ = spool.add_job(REQ)
        batch_id = spool.create_batch([job_id], "mybatch")
        assert batch_id == "mybatch"
        assert spool.batch_jobs("mybatch") == [job_id]
        assert spool.batch_ids() == ["mybatch"]

    def test_unknown_batch_raises(self, spool):
        with pytest.raises(KeyError):
            spool.batch_jobs("nope")


class TestMemorySpoolBatches(TestBatches):
    @pytest.fixture
    def spool(self):
        return MemorySpool()


class TestDefaultDir:
    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SPOOL_DIR", str(tmp_path / "s"))
        assert default_spool_dir() == tmp_path / "s"

    def test_xdg_fallback(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_SPOOL_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert default_spool_dir() == tmp_path / "repro" / "spool"
