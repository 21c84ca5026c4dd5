"""Run-cache soundness: keys, invalidation, and the execute() fast path.

The cache may only ever serve a result for a *bit-identical* request
under the *same* code version — so the invalidation matrix here walks
every axis of the key (every CoreConfig field, the workload identity,
instrument mode, policy, budgets, fast-forward flag, and the code
fingerprint) and asserts each one produces a distinct key.
"""

import dataclasses
import enum

import pytest

from repro.core.config import CoreConfig, WrpkruPolicy
from repro.harness.api import RunRequest, TraceOptions, execute
from repro.perf import runcache
from repro.perf.runcache import RunCache, cache_key, canonicalize
from repro.workloads.generator import build_workload
from repro.workloads.instrument import InstrumentMode
from repro.workloads.profiles import profile_by_label

LABEL = "429.mcf (CPI)"
OTHER_LABEL = "520.omnetpp_r (SS)"


def _base_request(**overrides) -> RunRequest:
    defaults = dict(
        workload=LABEL,
        policy=WrpkruPolicy.SPECMPK,
        instructions=400,
        warmup=100,
    )
    defaults.update(overrides)
    return RunRequest(**defaults)


def _mutated(value):
    """A value of the same shape as *value* but a different content."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value + 0.5
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, enum.Enum):
        members = list(type(value))
        return members[(members.index(value) + 1) % len(members)]
    if value is None:
        return "dom"  # Optional[str] load_security
    if isinstance(value, tuple) and hasattr(value, "_fields"):  # NamedTuple
        first = value._fields[0]
        return value._replace(**{first: _mutated(getattr(value, first))})
    raise NotImplementedError(f"no mutation for {type(value).__name__}")


# -- key sensitivity -------------------------------------------------------


def test_identical_requests_share_a_key():
    assert cache_key(_base_request()) == cache_key(_base_request())
    assert cache_key(_base_request()) is not None


@pytest.mark.parametrize(
    "field", [f.name for f in dataclasses.fields(CoreConfig)]
)
def test_every_config_field_invalidates(field):
    """Changing ANY CoreConfig field must produce a different key."""
    config = CoreConfig(wrpkru_policy=WrpkruPolicy.SPECMPK)
    mutated = config.replace(
        **{field: _mutated(getattr(config, field))}
    )
    base = _base_request(config=config)
    assert cache_key(base) != cache_key(_base_request(config=mutated))


def test_default_config_and_explicit_equivalent_still_distinct():
    # None-config and an explicit Table III config hash differently;
    # that is deliberately conservative (never a false hit).
    assert cache_key(_base_request()) != cache_key(
        _base_request(config=CoreConfig(wrpkru_policy=WrpkruPolicy.SPECMPK))
    )


def test_workload_label_invalidates():
    assert cache_key(_base_request()) != cache_key(
        _base_request(workload=OTHER_LABEL)
    )


def test_profile_field_invalidates_under_same_label():
    """A WorkloadProfile edit must miss even when the label is unchanged."""
    profile = profile_by_label(LABEL)
    edited = dataclasses.replace(profile, seed=profile.seed + 1)
    assert edited.label == profile.label
    assert cache_key(_base_request(workload=profile)) != cache_key(
        _base_request(workload=edited)
    )


def test_profile_and_its_label_share_no_key():
    # A label and the profile it names canonicalize differently
    # (string vs dataclass) — conservative, never a false hit.
    assert cache_key(_base_request()) != cache_key(
        _base_request(workload=profile_by_label(LABEL))
    )


@pytest.mark.parametrize(
    "overrides",
    [
        {"mode": InstrumentMode.PROTECTED_NOP},
        {"mode": InstrumentMode.NONE},
        {"policy": WrpkruPolicy.SERIALIZED},
        {"policy": WrpkruPolicy.NONSECURE_SPEC},
        {"instructions": 401},
        {"warmup": 101},
        {"fastforward": True},
    ],
    ids=lambda o: "-".join(f"{k}={v}" for k, v in o.items()),
)
def test_request_axes_invalidate(overrides):
    assert cache_key(_base_request()) != cache_key(_base_request(**overrides))


def test_code_fingerprint_invalidates(monkeypatch):
    base = cache_key(_base_request())
    monkeypatch.setattr(runcache, "code_fingerprint", lambda: "deadbeef")
    assert cache_key(_base_request()) != base


@pytest.mark.parametrize("overrides, key", [
    ({}, "d2243e60f89f0fe47962253b508d5f033dbbaf08cefb8e0865cc0ec709e5a493"),
    ({"workload": profile_by_label(LABEL), "fastforward": True},
     "f93df1257c958c0010724e41cbf34c981f1a1a93606f0d2d72625a39b4b301aa"),
    ({"time_shards": 2, "metrics": False},
     "8554a91fe314f7bdf5d2e56bc61656755fad104f4512a6a8c2a72b9faa300afb"),
], ids=["label", "profile-fastforward", "sharded-nometrics"])
def test_run_keys_are_pinned(monkeypatch, overrides, key):
    """``runrequest-v3`` keys are byte-stable under a fixed fingerprint:
    an edit to the derivation would orphan every stored run."""
    monkeypatch.setattr(runcache, "code_fingerprint", lambda: "f" * 20)
    monkeypatch.delenv("REPRO_METRICS", raising=False)
    monkeypatch.delenv("REPRO_SHARD_WARMUP", raising=False)
    assert cache_key(_base_request(**overrides)) == key


def test_traced_requests_are_not_cacheable():
    assert cache_key(
        _base_request(trace=TraceOptions(enabled=True))
    ) is None


def test_generated_workloads_are_not_cacheable():
    workload = build_workload(
        profile_by_label(LABEL), InstrumentMode.PROTECTED
    )
    assert cache_key(_base_request(workload=workload)) is None


def test_canonicalize_rejects_opaque_objects():
    with pytest.raises(TypeError):
        canonicalize(object())


# -- the store -------------------------------------------------------------


def test_put_get_stats_clear(tmp_path):
    cache = RunCache(tmp_path)
    assert cache.get("k" * 64) is None
    assert cache.misses == 1
    cache.put("k" * 64, {"ipc": 1.25})
    assert cache.get("k" * 64) == {"ipc": 1.25}
    assert cache.hits == 1
    stats = cache.stats()
    assert stats["entries"] == 1 and stats["bytes"] > 0
    assert cache.clear() == 1
    assert cache.entries() == 0


def test_load_counts_nothing(tmp_path):
    cache = RunCache(tmp_path)
    assert cache.load("l" * 64) is None
    cache.put("l" * 64, 0.75)
    assert cache.load("l" * 64) == 0.75
    assert (cache.hits, cache.misses) == (0, 0)
    assert cache.persistent_counters() == {"hits": 0, "misses": 0}


def test_corrupt_entry_is_a_miss(tmp_path):
    cache = RunCache(tmp_path)
    cache.put("a" * 64, {"ok": True})
    (tmp_path / ("a" * 64 + ".pkl")).write_bytes(b"not a pickle")
    assert cache.get("a" * 64) is None


# -- persistent counters ---------------------------------------------------


def test_counters_persist_across_cache_instances(tmp_path):
    first = RunCache(tmp_path)
    first.put("k" * 64, {"ipc": 1.0})
    assert first.get("k" * 64) is not None
    assert first.get("z" * 64) is None
    # A fresh instance (a new process, as far as the store can tell)
    # starts its in-process counters at zero but sees the lifetime ones.
    second = RunCache(tmp_path)
    assert second.hits == 0 and second.misses == 0
    assert second.persistent_counters() == {"hits": 1, "misses": 1}
    assert second.get("k" * 64) is not None
    assert second.persistent_counters() == {"hits": 2, "misses": 1}
    stats = second.stats()
    assert stats["lifetime_hits"] == 2 and stats["lifetime_misses"] == 1
    assert stats["hits"] == 1 and stats["misses"] == 0


def test_counters_file_is_not_a_cache_entry(tmp_path):
    cache = RunCache(tmp_path)
    assert cache.get("m" * 64) is None  # appends to the counter log
    assert cache.entries() == 0


def test_clear_resets_lifetime_counters(tmp_path):
    cache = RunCache(tmp_path)
    cache.put("k" * 64, {"ipc": 1.0})
    cache.get("k" * 64)
    cache.clear()
    assert cache.persistent_counters() == {"hits": 0, "misses": 0}


def test_corrupt_counters_file_is_tolerated(tmp_path):
    cache = RunCache(tmp_path)
    (tmp_path / RunCache.COUNTERS_FILE).write_text("not json")
    assert cache.persistent_counters() == {"hits": 0, "misses": 0}
    assert cache.get("c" * 64) is None  # overwrites the corrupt file
    assert cache.persistent_counters() == {"hits": 0, "misses": 1}


def test_concurrent_bumps_lose_no_increment(tmp_path):
    """Many threads hammering ``_bump`` must account for every single
    increment."""
    import threading

    cache = RunCache(tmp_path)
    n_threads, per_thread = 8, 25
    barrier = threading.Barrier(n_threads)

    def worker():
        barrier.wait()  # maximise interleaving
        for _ in range(per_thread):
            cache._bump("hits")

    threads = [threading.Thread(target=worker) for _ in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert cache.persistent_counters()["hits"] == n_threads * per_thread


def test_concurrent_distinct_instances_lose_no_increment(tmp_path):
    """Same property across separate RunCache objects (distinct file
    descriptors, as cross-process bumps would use)."""
    import threading

    n_caches, per_cache = 6, 20
    barrier = threading.Barrier(n_caches)

    def worker():
        cache = RunCache(tmp_path)
        barrier.wait()
        for _ in range(per_cache):
            cache._bump("misses")

    threads = [threading.Thread(target=worker) for _ in range(n_caches)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert (RunCache(tmp_path).persistent_counters()["misses"]
            == n_caches * per_cache)


_LOOKUP_SCRIPT = """
import sys, time
sys.path.insert(0, sys.argv[1])
from repro.perf.runcache import RunCache

cache = RunCache(sys.argv[2])
time.sleep(max(0.0, float(sys.argv[4]) - time.time()))  # start together
for _ in range(int(sys.argv[3])):
    assert cache.get("k" * 64) is not None
    assert cache.get("z" * 64) is None
"""


def test_concurrent_processes_lose_no_increment(tmp_path):
    """Same property across processes: each appends to one counter log."""
    import subprocess
    import sys
    import time
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[2] / "src")
    RunCache(tmp_path).put("k" * 64, {"ipc": 1.0})
    n_procs, per_proc = 4, 200
    start = str(time.time() + 1.0)
    procs = [
        subprocess.Popen([
            sys.executable, "-c", _LOOKUP_SCRIPT, src, str(tmp_path),
            str(per_proc), start,
        ])
        for _ in range(n_procs)
    ]
    assert [proc.wait(timeout=60) for proc in procs] == [0] * n_procs
    assert RunCache(tmp_path).persistent_counters() == {
        "hits": n_procs * per_proc, "misses": n_procs * per_proc,
    }


def test_cache_stats_cli_reports_lifetime(tmp_path, monkeypatch, capsys):
    from repro.__main__ import main

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    RunCache(tmp_path).get("s" * 64)  # one lifetime miss
    assert main(["cache", "stats"]) == 0
    out = capsys.readouterr().out
    assert "lifetime:  0 hit(s), 1 miss(es)" in out


# -- fingerprint coverage --------------------------------------------------


def test_fingerprint_covers_block_translation_module():
    """The translation cache generates execution semantics, so editing
    it must invalidate the run cache like any interpreter edit."""
    import pathlib

    root = pathlib.Path(runcache.__file__).resolve().parents[1]
    names = {
        path.relative_to(root).as_posix()
        for path in runcache.fingerprint_files()
    }
    assert "isa/blockcache.py" in names
    assert "isa/emulator.py" in names
    assert "simpoint/profiler.py" in names


# -- execute() integration -------------------------------------------------


def _stats_dict(stats):
    return vars(stats)


def test_execute_hit_returns_identical_stats(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    request = _base_request()
    first = execute(request)
    cache = runcache.default_cache()
    assert cache.entries() == 1
    before_hits = cache.hits
    second = execute(request)
    assert cache.hits == before_hits + 1
    assert _stats_dict(second.stats) == _stats_dict(first.stats)
    assert second.metadata == first.metadata
    assert second.trace is None


def test_execute_miss_on_different_policy(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    execute(_base_request())
    execute(_base_request(policy=WrpkruPolicy.SERIALIZED))
    assert runcache.default_cache().entries() == 2


def test_repro_cache_0_bypasses(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_CACHE", "0")
    execute(_base_request())
    execute(_base_request())
    assert list(tmp_path.glob("*.pkl")) == []
