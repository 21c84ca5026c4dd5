"""Content-addressed on-disk cache of simulation results.

Every paper figure is a ``(workload, policy, config)`` sweep over the
cycle-level model, and benchmark suites re-simulate mostly identical
points run after run.  The run cache memoizes
:func:`repro.harness.api.execute` on disk:

* **Key** — SHA-256 over the canonicalized request (workload identity,
  instrument mode, policy, resolved instruction/warmup budgets,
  fast-forward flag, time-shard count, the full
  :class:`~repro.core.config.CoreConfig`) plus a *code-version
  fingerprint* hashing every ``repro`` source file, so any simulator
  change invalidates the whole cache.
* **Value** — the pickled :class:`~repro.harness.api.RunResult`
  (stats + metadata; only untraced runs are cached, so no collector
  rides along).
* **Memos** — :func:`memoize` stores deterministic derived values
  that are not runs (the Fig. 4 useful-work probe, a report's
  bootstrap CIs and static artifacts) beside them, under keys from the
  same :func:`content_key` derivation, without touching the run
  hit/miss counters.

The simulator is deterministic, which is what makes this sound: the
same key can only ever map to one result.  ``REPRO_CACHE=0`` opts out,
``REPRO_CACHE_DIR`` relocates the store, and the ``repro cache`` CLI
reports/clears it.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import os
import pickle
from pathlib import Path
from typing import Callable, Dict, List, Optional

from .envflag import env_flag


def cache_enabled() -> bool:
    """The cache is on unless ``REPRO_CACHE`` says otherwise."""
    return env_flag("REPRO_CACHE", default=True)


def default_cache_dir() -> Path:
    """``REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro/runcache``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override).expanduser()
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base).expanduser() if base else Path.home() / ".cache"
    return root / "repro" / "runcache"


# -- canonicalization ------------------------------------------------------


def canonicalize(value):
    """Reduce *value* to a deterministic tree of primitives.

    Handles the request vocabulary: dataclasses (CoreConfig,
    WorkloadProfile, TraceOptions, cache geometries), enums, and plain
    containers.  Anything else — bound methods, generated programs,
    open handles — raises, which :func:`cache_key` treats as
    "not cacheable"."""
    if isinstance(value, enum.Enum):
        return (type(value).__name__, value.name)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (
            type(value).__name__,
            tuple(
                (field.name, canonicalize(getattr(value, field.name)))
                for field in dataclasses.fields(value)
            ),
        )
    if isinstance(value, dict):
        return tuple(
            sorted((key, canonicalize(item)) for key, item in value.items())
        )
    if isinstance(value, (list, tuple)):
        return tuple(canonicalize(item) for item in value)
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return value
    raise TypeError(f"cannot canonicalize {type(value).__name__}")


def fingerprint_files() -> List[Path]:
    """Every source file :func:`code_fingerprint` hashes, sorted.

    Exposed so tests can assert specific execution-semantics modules
    (e.g. the block translation codegen) are covered by invalidation.
    """
    root = Path(__file__).resolve().parents[1]
    return sorted(root.rglob("*.py"))


@functools.lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Hash of every ``repro`` source file (path + contents).

    Computed once per process; any edit to the simulator produces new
    cache keys, so stale results can never be served across code
    versions.  That sweep includes every module that *generates* code
    rather than being the code — in particular the basic-block
    translation cache (:mod:`repro.isa.blockcache`), whose emitted
    block functions define functional-execution semantics: an edit to
    its codegen templates invalidates the cache exactly like an edit to
    the interpreter it mirrors."""
    root = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for path in fingerprint_files():
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:20]


def content_key(*parts) -> str:
    """SHA-256 of ``(*parts, code_fingerprint())``.

    The one derivation behind every key in the store: *parts* is a
    version tag followed by canonical primitives (see
    :func:`canonicalize`), and the trailing fingerprint invalidates
    every entry on any source edit.  Run keys (:func:`cache_key`) and
    derived-value memo keys (see :func:`memoize`) both come from
    here."""
    return hashlib.sha256(
        repr((*parts, code_fingerprint())).encode()
    ).hexdigest()


def cache_key(request) -> Optional[str]:
    """Content hash of a :class:`~repro.harness.api.RunRequest`.

    Returns None when the request is not cacheable: traced runs (the
    collector is not worth pickling and its ring contents depend on
    capacities anyway) and pre-built :class:`GeneratedWorkload` objects
    (no canonical identity).  Workload labels and
    :class:`WorkloadProfile` values canonicalize field-by-field, so a
    modified profile under an existing label still misses.
    """
    if request.trace.enabled:
        return None
    try:
        # v3: the resolved time-shard count K is part of the identity —
        # sharded results carry a bounded microarchitectural error, so
        # a K=4 result must never satisfy an exact K=1 request (or a
        # K=8 one: boundary effects differ per K).  The per-shard
        # warmup length matters only when sharding is active, so K=1
        # pins it to 0 and a plain request hashes identically whatever
        # REPRO_SHARD_WARMUP says.
        shards = request.resolved_time_shards()
        canonical = (
            "runrequest-v3",
            canonicalize(request.workload),
            canonicalize(request.mode),
            canonicalize(request.policy),
            request.resolved_instructions(),
            request.resolved_warmup(),
            bool(request.fastforward),
            bool(request.resolved_metrics()),
            canonicalize(request.config),
            shards,
            request.resolved_shard_warmup() if shards > 1 else 0,
        )
    except TypeError:
        return None
    return content_key(*canonical)


def memoize(key: str, compute: Callable[[], object]):
    """``compute()``, stored in the default run cache under *key*.

    For deterministic values that are not runs (the Fig. 4 useful-work
    probe, a report's bootstrap CIs and static artifacts): on when the
    run cache is on, in the same directory, invalidated by the same
    code fingerprint when *key* comes from :func:`content_key`.  Reads
    and writes leave the hit/miss counters alone — those count
    simulations — and no run observer hears of them.  *compute* must
    never return None, which reads back as "absent".
    """
    if not cache_enabled():
        return compute()
    cache = default_cache()
    value = cache.load(key)
    if value is None:
        value = compute()
        cache.put(key, value)
    return value


# -- the store -------------------------------------------------------------


class RunCache:
    """Pickle-per-key store under one directory.

    Hit/miss counters are kept twice: per-process attributes (``hits``
    / ``misses``) and a persistent ``counters.log`` in the store
    directory that accumulates across processes — ``repro cache
    stats`` reports both, so the lifetime effectiveness of the store
    survives short-lived CLI invocations.
    """

    COUNTERS_FILE = "counters.log"
    #: The byte :meth:`_bump` appends to the counter log per lookup.
    _COUNTER_BYTES = {"hits": b"h", "misses": b"m"}

    def __init__(self, directory: Optional[Path] = None) -> None:
        self.directory = Path(
            directory if directory is not None else default_cache_dir()
        )
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.pkl"

    def load(self, key: str):
        """The stored value for *key*, or None; counts nothing.

        Unreadable/corrupt entries (killed writer, unpicklable after a
        refactor) read as absent; the subsequent put overwrites them.
        """
        try:
            with open(self._path(key), "rb") as handle:
                return pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError):
            return None

    def get(self, key: str):
        """The cached RunResult for *key*, or None on a miss (counted)."""
        result = self.load(key)
        if result is None:
            self.misses += 1
            self._bump("misses")
            return None
        self.hits += 1
        self._bump("hits")
        return result

    def peek(self, key: str):
        """Like :meth:`get`, but an absent entry counts nothing.

        The batch service probes the store before dispatching a claimed
        job; on absence the subsequent ``execute`` records the miss
        itself, so counting it here too would double every miss (one
        hit *or* one miss per job, never both).
        """
        result = self.load(key)
        if result is not None:
            self.hits += 1
            self._bump("hits")
        return result

    # -- persistent counters ----------------------------------------------

    def _counters_path(self) -> Path:
        return self.directory / self.COUNTERS_FILE

    def persistent_counters(self) -> Dict[str, int]:
        """Lifetime hit/miss counts accumulated across processes.

        One byte of the counter log per lookup; any other byte is
        ignored, so a stray or corrupt file reads as whatever valid
        bytes it happens to hold.
        """
        try:
            log = self._counters_path().read_bytes()
        except OSError:
            log = b""
        return {
            field: log.count(byte)
            for field, byte in self._COUNTER_BYTES.items()
        }

    def _bump(self, field: str) -> None:
        """Increment one persistent counter: append its byte to the log.

        A single ``O_APPEND`` write is atomic with respect to every
        other appender, thread or process, so no increment is lost
        and none needs a lock; each one is in the file as soon as the
        call returns.
        """
        flags = os.O_WRONLY | os.O_APPEND | os.O_CREAT
        try:
            try:
                handle = os.open(self._counters_path(), flags, 0o644)
            except FileNotFoundError:
                self.directory.mkdir(parents=True, exist_ok=True)
                handle = os.open(self._counters_path(), flags, 0o644)
            try:
                os.write(handle, self._COUNTER_BYTES[field])
            finally:
                os.close(handle)
        except OSError:
            pass  # unwritable store: keep the in-process counts only

    def put(self, key: str, result) -> None:
        """Store *result*; atomic rename so readers never see a torn file."""
        self.directory.mkdir(parents=True, exist_ok=True)
        final = self._path(key)
        temp = final.with_name(f".{key}.{os.getpid()}.tmp")
        with open(temp, "wb") as handle:
            pickle.dump(result, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(temp, final)

    def entries(self) -> int:
        return sum(1 for _ in self.directory.glob("*.pkl"))

    def stats(self) -> Dict[str, object]:
        """Store-wide numbers for ``repro cache stats``."""
        files = list(self.directory.glob("*.pkl"))
        lifetime = self.persistent_counters()
        return {
            "directory": str(self.directory),
            "entries": len(files),
            "bytes": sum(path.stat().st_size for path in files),
            "hits": self.hits,
            "misses": self.misses,
            "lifetime_hits": lifetime["hits"],
            "lifetime_misses": lifetime["misses"],
        }

    def clear(self) -> int:
        """Delete every entry (and the lifetime counters); returns how
        many entries were removed."""
        removed = 0
        for path in self.directory.glob("*.pkl"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        try:
            self._counters_path().unlink()
        except OSError:
            pass
        return removed


#: Shared instances per resolved directory, so hit/miss counters
#: accumulate across calls while tests can redirect via
#: ``REPRO_CACHE_DIR`` monkeypatching.
_instances: Dict[str, RunCache] = {}


def default_cache() -> RunCache:
    """The process-wide cache for the currently resolved directory."""
    directory = default_cache_dir()
    key = str(directory)
    cache = _instances.get(key)
    if cache is None:
        cache = _instances[key] = RunCache(directory)
    return cache
