"""On-disk job spool: the durable state behind the batch service.

A spool directory is the unit of deployment for the sweep service —
``repro submit`` writes jobs into one, ``repro serve`` drains it, and
a killed worker resumes from it without recomputing finished runs.
Layout::

    <spool>/
      jobs/pending/<job_id>.json    submitted, not yet claimed
      jobs/running/<job_id>.json    claimed by a worker
      jobs/done/<job_id>.json       finished (result in results/)
      jobs/failed/<job_id>.json     exhausted its retry budget
      results/<job_id>.json         JSON result payload of a done job
      batches/<batch_id>.json       manifest: ordered job-id list

Every state transition is a single ``os.replace``/``os.rename`` of the
job file between state directories, so transitions are atomic on POSIX
and a *claim* (pending → running) can be won by exactly one worker —
the losers get ``FileNotFoundError`` and move on.  All JSON writes go
through temp-file + ``os.replace`` (the same discipline as the run
cache), so a SIGKILLed writer can never leave a torn file.

The **job id is the request's run-cache key**
(:meth:`~repro.harness.api.RunRequest.cache_key`): spool entries and
the content-addressed run cache share one canonical identity, which is
what makes batch deduplication exact — resubmitting a request that any
earlier batch completed lands on the same job id and the same cache
entry.

A batch submitted without a spool outlives nothing, so it keeps the
same documents and state transitions in a :class:`MemorySpool`
instead: no file is written and nothing is left behind when the batch
fails or is interrupted.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import os
import threading
import uuid
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..core.config import CoreConfig, WrpkruPolicy
from ..harness.api import RequestError, RunRequest
from ..memory.hierarchy import CacheGeometry
from ..workloads.instrument import InstrumentMode
from ..workloads.profiles import WorkloadProfile


def default_spool_dir() -> Path:
    """``REPRO_SPOOL_DIR``, else ``$XDG_CACHE_HOME/repro/spool``."""
    override = os.environ.get("REPRO_SPOOL_DIR")
    if override:
        return Path(override).expanduser()
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base).expanduser() if base else Path.home() / ".cache"
    return root / "repro" / "spool"


class JobState(enum.Enum):
    """Lifecycle of one spooled job (one state directory each)."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


# -- request (de)serialization ---------------------------------------------

#: CoreConfig fields holding a :class:`CacheGeometry` named tuple.
_GEOMETRY_FIELDS = ("l1i", "l1d", "l2", "l3")


def _encode_config(config: Optional[CoreConfig]) -> Optional[Dict[str, object]]:
    if config is None:
        return None
    doc: Dict[str, object] = {}
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if isinstance(value, enum.Enum):
            value = value.value
        elif isinstance(value, CacheGeometry):
            value = list(value)
        doc[field.name] = value
    return doc


def _decode_config(doc: Optional[Dict[str, object]]) -> Optional[CoreConfig]:
    if doc is None:
        return None
    kwargs = dict(doc)
    kwargs["wrpkru_policy"] = WrpkruPolicy(kwargs["wrpkru_policy"])
    for name in _GEOMETRY_FIELDS:
        if kwargs.get(name) is not None:
            kwargs[name] = CacheGeometry(*kwargs[name])
    return CoreConfig(**kwargs)


def encode_request(request: RunRequest) -> Dict[str, object]:
    """A :class:`RunRequest` as a JSON-able document.

    Only *spoolable* requests encode: the workload must be a known
    label or a :class:`WorkloadProfile` (either rebuilds
    deterministically on any worker host — a profile is just the
    generator's knobs, e.g. a seed-varied repeat from ``repro
    report``) and the run must be untraced (a trace collector cannot
    cross the service boundary).  Everything else — notably a
    pre-built :class:`~repro.workloads.generator.Workload` object —
    raises :class:`RequestError`, the same construction-time error
    type the request itself uses.
    """
    workload: object = request.workload
    if isinstance(workload, WorkloadProfile):
        workload = {"profile": dataclasses.asdict(workload)}
    elif not isinstance(workload, str) or not workload:
        raise RequestError(
            "only label-addressed or profile-addressed workloads can be "
            f"spooled; got {type(request.workload).__name__}"
        )
    if request.trace.enabled:
        raise RequestError("traced runs cannot be spooled")
    return {
        "v": 2,
        "workload": workload,
        "policy": request.policy.value,
        "mode": request.mode.value,
        "instructions": request.instructions,
        "warmup": request.warmup,
        "fastforward": request.fastforward,
        "metrics": request.metrics,
        "config": _encode_config(request.config),
        "time_shards": request.time_shards,
        "shard_warmup": request.shard_warmup,
    }


def decode_request(doc: Dict[str, object]) -> RunRequest:
    """Rebuild the :class:`RunRequest` a spool entry describes.

    Construction re-runs the request validation, so a corrupted or
    stale spool entry fails loudly with :class:`RequestError` instead
    of deep inside a worker.
    """
    workload = doc["workload"]
    if isinstance(workload, dict):
        workload = WorkloadProfile(**workload["profile"])
    return RunRequest(
        workload=workload,
        policy=WrpkruPolicy(doc["policy"]),
        mode=InstrumentMode(doc["mode"]),
        instructions=doc.get("instructions"),
        warmup=doc.get("warmup"),
        config=_decode_config(doc.get("config")),
        fastforward=bool(doc.get("fastforward", False)),
        metrics=doc.get("metrics"),
        # Absent in v1 documents: both default to None (inherit env).
        time_shards=doc.get("time_shards"),
        shard_warmup=doc.get("shard_warmup"),
    )


def _new_job(request: RunRequest) -> Tuple[str, Dict[str, object]]:
    """``(job_id, document)`` of a freshly spooled, pending *request*.

    The job id is :meth:`RunRequest.cache_key`; requests without one
    (and unspoolable ones, see :func:`encode_request`) raise
    :class:`RequestError`.
    """
    job_id = request.cache_key()
    if job_id is None:
        raise RequestError(
            "request has no canonical cache key and cannot be spooled "
            "(traced run or pre-built workload object)"
        )
    doc = encode_request(request)  # validates spoolability
    return job_id, {"id": job_id, "request": doc, "attempts": 0,
                    "error": None}


# -- the spool directory ----------------------------------------------------


def _atomic_write_json(path: Path, doc: Dict[str, object]) -> None:
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    temp.write_text(json.dumps(doc, sort_keys=True))
    os.replace(temp, path)


class SpoolDir:
    """One spool directory: job files, result payloads, batch manifests."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    def ensure(self) -> "SpoolDir":
        for state in JobState:
            self._state_dir(state).mkdir(parents=True, exist_ok=True)
        (self.root / "results").mkdir(parents=True, exist_ok=True)
        (self.root / "batches").mkdir(parents=True, exist_ok=True)
        return self

    # -- paths -------------------------------------------------------------

    def _state_dir(self, state: JobState) -> Path:
        return self.root / "jobs" / state.value

    def _job_path(self, state: JobState, job_id: str) -> Path:
        return self._state_dir(state) / f"{job_id}.json"

    def _result_path(self, job_id: str) -> Path:
        return self.root / "results" / f"{job_id}.json"

    def _batch_path(self, batch_id: str) -> Path:
        return self.root / "batches" / f"{batch_id}.json"

    # -- jobs --------------------------------------------------------------

    def add_job(self, request: RunRequest) -> Tuple[str, JobState, bool]:
        """Spool one request; returns ``(job_id, state, created)``.

        The job id is :meth:`RunRequest.cache_key`.  A job that already
        exists in *any* state is not re-created (``created=False``) —
        that is the submission-side half of batch deduplication.
        """
        job_id, doc = _new_job(request)
        state = self.state_of(job_id)
        if state is not None:
            return job_id, state, False
        self.ensure()
        _atomic_write_json(self._job_path(JobState.PENDING, job_id), doc)
        return job_id, JobState.PENDING, True

    def state_of(self, job_id: str) -> Optional[JobState]:
        for state in JobState:
            if self._job_path(state, job_id).exists():
                return state
        return None

    def jobs(self, state: JobState) -> List[str]:
        """Job ids currently in *state*, sorted for determinism."""
        directory = self._state_dir(state)
        if not directory.is_dir():
            return []
        return sorted(
            path.stem for path in directory.glob("*.json")
            if not path.name.startswith(".")
        )

    def job_doc(self, job_id: str) -> Optional[Dict[str, object]]:
        """The job document, from whichever state directory holds it."""
        for state in JobState:
            path = self._job_path(state, job_id)
            try:
                return json.loads(path.read_text())
            except OSError:
                continue
        return None

    def claim(self, job_id: str) -> Optional[Dict[str, object]]:
        """Move pending → running and return the job document.

        The rename is the claim: with several workers racing, exactly
        one wins; everyone else gets None.
        """
        src = self._job_path(JobState.PENDING, job_id)
        dst = self._job_path(JobState.RUNNING, job_id)
        try:
            os.replace(src, dst)
        except FileNotFoundError:
            return None
        return json.loads(dst.read_text())

    def complete(self, job_id: str, payload: Dict[str, object]) -> None:
        """Persist the result payload, then move running → done.

        The payload lands (atomically) *before* the state flips, so a
        job in ``done/`` always has a readable result.
        """
        _atomic_write_json(self._result_path(job_id), payload)
        os.replace(
            self._job_path(JobState.RUNNING, job_id),
            self._job_path(JobState.DONE, job_id),
        )

    def note_shards(self, job_id: str, done: int, total: int) -> None:
        """Record intra-run shard progress on a running job (best effort).

        Time-sharded jobs settle only once every shard folds, which can
        be minutes into a long run; this stamps ``shards_done`` /
        ``shards_total`` onto the running job document so pollers
        (``repro submit --watch``, ``BatchHandle.job_status``) can show
        progress inside a single job.  Racing against the job settling
        (running → done) is harmless, so lost updates are ignored.
        """
        path = self._job_path(JobState.RUNNING, job_id)
        try:
            doc = json.loads(path.read_text())
            doc["shards_done"] = done
            doc["shards_total"] = total
            _atomic_write_json(path, doc)
        except (OSError, ValueError):
            pass

    def retry(self, job_id: str, doc: Dict[str, object]) -> None:
        """Requeue a failed attempt: rewrite the doc, running → pending."""
        _atomic_write_json(self._job_path(JobState.PENDING, job_id), doc)
        try:
            self._job_path(JobState.RUNNING, job_id).unlink()
        except FileNotFoundError:
            pass

    def fail(self, job_id: str, doc: Dict[str, object]) -> None:
        """Retry budget exhausted: record the error, running → failed."""
        _atomic_write_json(self._job_path(JobState.FAILED, job_id), doc)
        try:
            self._job_path(JobState.RUNNING, job_id).unlink()
        except FileNotFoundError:
            pass

    def recover(self) -> List[str]:
        """Requeue every ``running`` job (service restart after a crash).

        A job can only be in ``running`` across a restart if its worker
        died mid-run; finished jobs already moved to ``done``/``failed``
        atomically, so none of those is ever re-queued.
        """
        recovered = []
        for job_id in self.jobs(JobState.RUNNING):
            src = self._job_path(JobState.RUNNING, job_id)
            dst = self._job_path(JobState.PENDING, job_id)
            if dst.exists():  # torn retry(): pending copy already written
                src.unlink()
            else:
                os.replace(src, dst)
            recovered.append(job_id)
        return recovered

    def result_payload(self, job_id: str) -> Optional[Dict[str, object]]:
        try:
            return json.loads(self._result_path(job_id).read_text())
        except (OSError, ValueError):
            return None

    def counts(self) -> Dict[str, int]:
        return {state.value: len(self.jobs(state)) for state in JobState}

    # -- batches -----------------------------------------------------------

    def create_batch(
        self, job_ids: List[str], batch_id: Optional[str] = None
    ) -> str:
        batch_id = batch_id or uuid.uuid4().hex[:12]
        self.ensure()
        _atomic_write_json(
            self._batch_path(batch_id),
            {"id": batch_id, "jobs": list(job_ids)},
        )
        return batch_id

    def batch_jobs(self, batch_id: str) -> List[str]:
        """The ordered job-id list of one batch (KeyError if unknown)."""
        try:
            manifest = json.loads(self._batch_path(batch_id).read_text())
        except OSError:
            raise KeyError(f"unknown batch {batch_id!r}") from None
        return list(manifest["jobs"])

    def batch_ids(self) -> List[str]:
        directory = self.root / "batches"
        if not directory.is_dir():
            return []
        return sorted(
            path.stem for path in directory.glob("*.json")
            if not path.name.startswith(".")
        )


# -- the in-memory spool ----------------------------------------------------


class MemorySpool:
    """The spool of a batch that nothing outlives, held in memory.

    Same methods, state transitions and documents as :class:`SpoolDir`
    (dicts instead of JSON files), for ``SweepService(spool=None)``:
    the job files of such a batch would be read back only by the
    process that wrote them.  One lock stands in for the atomic
    renames, so a claim is still won by exactly one caller.
    """

    def __init__(self) -> None:
        #: job id -> (state, job document)
        self._jobs: Dict[str, Tuple[JobState, Dict[str, object]]] = {}
        self._results: Dict[str, Dict[str, object]] = {}
        self._batches: Dict[str, List[str]] = {}
        self._lock = threading.Lock()

    def ensure(self) -> "MemorySpool":
        return self

    def _move(self, job_id: str, source: JobState, target: JobState,
              doc: Optional[Dict[str, object]] = None,
              ) -> Optional[Dict[str, object]]:
        """Move *job_id* from *source* to *target*, replacing its
        document by *doc* if given; returns the document, or None
        (nothing moved) when the job is not in *source*."""
        with self._lock:
            entry = self._jobs.get(job_id)
            if entry is None or entry[0] is not source:
                return None
            doc = dict(doc if doc is not None else entry[1])
            self._jobs[job_id] = (target, doc)
            return dict(doc)

    # -- jobs --------------------------------------------------------------

    def add_job(self, request: RunRequest) -> Tuple[str, JobState, bool]:
        """See :meth:`SpoolDir.add_job`."""
        job_id, doc = _new_job(request)
        with self._lock:
            entry = self._jobs.get(job_id)
            if entry is not None:
                return job_id, entry[0], False
            self._jobs[job_id] = (JobState.PENDING, doc)
        return job_id, JobState.PENDING, True

    def state_of(self, job_id: str) -> Optional[JobState]:
        entry = self._jobs.get(job_id)
        return entry[0] if entry is not None else None

    def jobs(self, state: JobState) -> List[str]:
        """Job ids currently in *state*, sorted for determinism."""
        return sorted(
            job_id for job_id, (current, _doc) in list(self._jobs.items())
            if current is state
        )

    def job_doc(self, job_id: str) -> Optional[Dict[str, object]]:
        entry = self._jobs.get(job_id)
        return dict(entry[1]) if entry is not None else None

    def claim(self, job_id: str) -> Optional[Dict[str, object]]:
        """Move pending → running and return the job document."""
        return self._move(job_id, JobState.PENDING, JobState.RUNNING)

    def complete(self, job_id: str, payload: Dict[str, object]) -> None:
        """Store the result payload, then move running → done."""
        self._results[job_id] = payload
        self._move(job_id, JobState.RUNNING, JobState.DONE)

    def note_shards(self, job_id: str, done: int, total: int) -> None:
        """Stamp shard progress on a running job (see SpoolDir)."""
        with self._lock:
            entry = self._jobs.get(job_id)
            if entry is not None and entry[0] is JobState.RUNNING:
                entry[1].update(shards_done=done, shards_total=total)

    def retry(self, job_id: str, doc: Dict[str, object]) -> None:
        """Requeue a failed attempt: rewrite the doc, running → pending."""
        self._move(job_id, JobState.RUNNING, JobState.PENDING, doc)

    def fail(self, job_id: str, doc: Dict[str, object]) -> None:
        """Retry budget exhausted: record the error, running → failed."""
        self._move(job_id, JobState.RUNNING, JobState.FAILED, doc)

    def recover(self) -> List[str]:
        """Requeue every ``running`` job."""
        recovered = self.jobs(JobState.RUNNING)
        for job_id in recovered:
            self._move(job_id, JobState.RUNNING, JobState.PENDING)
        return recovered

    def result_payload(self, job_id: str) -> Optional[Dict[str, object]]:
        return self._results.get(job_id)

    def counts(self) -> Dict[str, int]:
        return {state.value: len(self.jobs(state)) for state in JobState}

    # -- batches -----------------------------------------------------------

    def create_batch(
        self, job_ids: List[str], batch_id: Optional[str] = None
    ) -> str:
        batch_id = batch_id or uuid.uuid4().hex[:12]
        self._batches[batch_id] = list(job_ids)
        return batch_id

    def batch_jobs(self, batch_id: str) -> List[str]:
        """The ordered job-id list of one batch (KeyError if unknown)."""
        try:
            return list(self._batches[batch_id])
        except KeyError:
            raise KeyError(f"unknown batch {batch_id!r}") from None

    def batch_ids(self) -> List[str]:
        return sorted(self._batches)
