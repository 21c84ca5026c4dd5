"""The Fig. 4 useful-work probe and its memo in the run cache.

``_useful_fraction`` stores the probe's exact float under a key from
the run cache's own derivation, so a warm report neither builds the
workload nor runs the emulator, while the cache's hit/miss counters
keep counting simulations only.
"""

import pytest

from repro.harness import experiments
from repro.harness.experiments import (
    _probe_useful_fraction,
    _useful_fraction,
    _useful_fraction_key,
)
from repro.perf import runcache
from repro.workloads.instrument import InstrumentMode
from repro.workloads.profiles import seed_variant

LABEL = "557.xz_r (SS)"
SAMPLE = 3_000


@pytest.fixture(autouse=True)
def _private_cache(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE", raising=False)


@pytest.fixture
def probes(monkeypatch):
    """Arguments of every uncached probe run."""
    calls = []

    def counted(*args):
        calls.append(args)
        return _probe_useful_fraction(*args)

    monkeypatch.setattr(experiments, "_probe_useful_fraction", counted)
    return calls


@pytest.mark.parametrize("workload", [LABEL, seed_variant(LABEL, 1)],
                         ids=["label", "variant"])
def test_memo_returns_the_probes_exact_float(workload, probes):
    uncached = _probe_useful_fraction(
        workload, InstrumentMode.PROTECTED, SAMPLE
    )
    assert 0.0 < uncached < 1.0
    cold = _useful_fraction(workload, InstrumentMode.PROTECTED, SAMPLE)
    warm = _useful_fraction(workload, InstrumentMode.PROTECTED, SAMPLE)
    assert cold == warm == uncached
    assert len(probes) == 1


def test_keys_differ_across_mode_sample_and_variant():
    inputs = [
        (LABEL, InstrumentMode.PROTECTED, SAMPLE),
        (LABEL, InstrumentMode.PROTECTED_NOP, SAMPLE),
        (LABEL, InstrumentMode.NONE, SAMPLE),
        (LABEL, InstrumentMode.PROTECTED, SAMPLE + 1),
        (seed_variant(LABEL, 1), InstrumentMode.PROTECTED, SAMPLE),
        (seed_variant(LABEL, 2), InstrumentMode.PROTECTED, SAMPLE),
    ]
    keys = [_useful_fraction_key(*args) for args in inputs]
    assert len(set(keys)) == len(inputs)
    assert _useful_fraction_key(*inputs[0]) == keys[0]


def test_code_fingerprint_invalidates(monkeypatch):
    key = _useful_fraction_key(LABEL, InstrumentMode.PROTECTED, SAMPLE)
    monkeypatch.setattr(runcache, "code_fingerprint", lambda: "0" * 20)
    assert _useful_fraction_key(
        LABEL, InstrumentMode.PROTECTED, SAMPLE
    ) != key


def test_cache_off_recomputes(monkeypatch, tmp_path, probes):
    monkeypatch.setenv("REPRO_CACHE", "0")
    for _ in range(2):
        _useful_fraction(LABEL, InstrumentMode.PROTECTED, SAMPLE)
    assert len(probes) == 2
    assert list(tmp_path.glob("*.pkl")) == []


def test_probe_entries_leave_run_counters_alone(tmp_path):
    cache = runcache.default_cache()
    before = (cache.hits, cache.misses, cache.persistent_counters())
    for _ in range(2):
        _useful_fraction(LABEL, InstrumentMode.PROTECTED, SAMPLE)
    assert (cache.hits, cache.misses, cache.persistent_counters()) == before
    # The memo lives in the run cache's own directory.
    assert cache.directory == tmp_path
    assert cache.entries() == 1
