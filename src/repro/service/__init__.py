"""Distributed sweep service: durable, deduplicated batch execution.

The paper's evaluation is one large label x policy x config sweep;
this package turns that into a service.  Batches of
:class:`~repro.harness.RunRequest`\\ s land in an on-disk spool
(:class:`SpoolDir`), a scheduler (:class:`SweepService`) shards them
across the persistent worker pool in LPT order, deduplicates against
the content-addressed run cache *before* dispatch, streams results and
mergeable metrics snapshots back as shards finish, and survives worker
death: every job-state transition is an atomic rename, so a restarted
service resumes exactly where the dead one stopped.  A batch without a
spool keeps the same job state in memory (:class:`MemorySpool`).

Public surface::

    from repro.service import execute_batch

    handle = execute_batch(requests, spool="spool/")   # BatchHandle
    handle.wait()       # await   — results in submit order
    handle.stream()     # stream  — (index, result, error) as they land
    handle.status()     # poll    — per-state counts
    handle.merged_metrics()        # one associative MetricsSnapshot

The same engine backs ``repro submit`` / ``repro serve`` /
``repro status`` on a shared spool directory, and
:func:`repro.harness.execute_many` in local mode.  See
``docs/service.md``.
"""

from ..harness.api import RequestError
from .batch import BatchError, BatchHandle, JobStatus
from .scheduler import (
    SweepService,
    execute_batch,
    lpt_weight,
    result_from_payload,
    result_payload,
    stats_from_dict,
)
from .spool import (
    JobState,
    MemorySpool,
    SpoolDir,
    decode_request,
    default_spool_dir,
    encode_request,
)

__all__ = [
    "BatchError",
    "BatchHandle",
    "JobState",
    "JobStatus",
    "MemorySpool",
    "RequestError",
    "SpoolDir",
    "SweepService",
    "decode_request",
    "default_spool_dir",
    "encode_request",
    "execute_batch",
    "lpt_weight",
    "result_from_payload",
    "result_payload",
    "stats_from_dict",
]
