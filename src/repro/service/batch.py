"""Batch handles: poll / stream / await over one submitted batch.

A :class:`BatchHandle` is what :func:`~repro.service.scheduler.execute_batch`
returns.  It keeps the submit-order view of the batch (per-request
status, results aligned to the requests that produced them) while the
scheduler settles jobs in completion order underneath.
"""

from __future__ import annotations

import dataclasses
import queue
import threading
from typing import Dict, Iterator, List, Optional, Tuple

from ..harness.api import RunResult
from ..obs.snapshot import MetricsSnapshot
from .spool import JobState


class BatchError(RuntimeError):
    """At least one request in the batch exhausted its retry budget.

    ``failures`` maps job id → error string; the partial results are
    still available via ``wait(raise_on_error=False)``.
    """

    def __init__(self, failures: Dict[str, str]) -> None:
        self.failures = dict(failures)
        summary = "; ".join(
            f"{job_id[:12]}: {error}"
            for job_id, error in sorted(self.failures.items())
        )
        super().__init__(
            f"{len(self.failures)} job(s) failed after retries: {summary}"
        )


@dataclasses.dataclass(frozen=True)
class JobStatus:
    """Point-in-time view of one request in a batch."""

    index: int
    job_id: str
    state: Optional[JobState]
    attempts: int = 0
    error: Optional[str] = None


#: Sentinel closing the stream queue.
_END = object()


class BatchHandle:
    """One submitted batch: await, stream, or poll its jobs.

    Construction happens inside ``SweepService.submit``; user code gets
    handles from :func:`~repro.service.scheduler.execute_batch` (or
    ``service.submit`` when driving a shared spool directly).
    """

    def __init__(
        self,
        service,
        batch_id: str,
        job_ids: List[str],
        requests: Optional[List] = None,
        deduped: int = 0,
    ) -> None:
        self._service = service
        self.batch_id = batch_id
        self.job_ids = list(job_ids)
        self.requests = list(requests) if requests is not None else None
        #: Requests whose job already existed at submission time.
        self.deduped = deduped
        self._results: Dict[str, Optional[RunResult]] = {}
        self._errors: Dict[str, str] = {}
        self._processed = False
        self._thread: Optional[threading.Thread] = None
        self._queue: Optional[queue.SimpleQueue] = None
        self._user_hook = None
        self._parallel: Optional[bool] = None
        self._max_workers: Optional[int] = None
        self._lock = threading.Lock()

    @property
    def spool(self):
        return self._service.spool

    # -- configuration (used by execute_batch) -----------------------------

    def configure(
        self,
        *,
        parallel: Optional[bool] = None,
        max_workers: Optional[int] = None,
        on_result=None,
    ) -> "BatchHandle":
        self._parallel = parallel
        self._max_workers = max_workers
        self._user_hook = on_result
        return self

    # -- processing --------------------------------------------------------

    def _indices_of(self, job_id: str) -> List[int]:
        return [
            index for index, jid in enumerate(self.job_ids) if jid == job_id
        ]

    def _record(self, job_id: str, result, error) -> None:
        self._results[job_id] = result
        if error is not None:
            self._errors[job_id] = error
        if self._queue is not None:
            for index in self._indices_of(job_id):
                self._queue.put((index, result, error))
        if self._user_hook is not None:
            for index in self._indices_of(job_id):
                self._user_hook(index, result, error)

    def _process(self) -> None:
        try:
            self._service.process(
                self.job_ids,
                parallel=self._parallel,
                max_workers=self._max_workers,
                on_result=self._record,
            )
        finally:
            self._processed = True
            if self._queue is not None:
                self._queue.put(_END)

    def _ensure_processed(self) -> None:
        with self._lock:
            if self._thread is None and not self._processed:
                self._process()

    def start_background(self) -> "BatchHandle":
        """Begin processing on a daemon thread (``background=True``)."""
        with self._lock:
            if self._thread is None and not self._processed:
                self._queue = queue.SimpleQueue()
                self._thread = threading.Thread(
                    target=self._process, name=f"batch-{self.batch_id}",
                    daemon=True,
                )
                self._thread.start()
        return self

    # -- await -------------------------------------------------------------

    def wait(
        self, *, raise_on_error: bool = True
    ) -> List[Optional[RunResult]]:
        """Block until every job settles; results in submit order.

        Failed requests raise :class:`BatchError` by default; with
        ``raise_on_error=False`` they come back as None (partial-
        failure semantics — callers pair results with their requests
        by index).
        """
        if self._thread is not None:
            self._thread.join()
        else:
            self._ensure_processed()
        if raise_on_error and self._errors:
            raise BatchError(self._errors)
        return [self._results.get(job_id) for job_id in self.job_ids]

    def results(self) -> List[Optional[RunResult]]:
        """Alias for ``wait(raise_on_error=False)``."""
        return self.wait(raise_on_error=False)

    # -- stream ------------------------------------------------------------

    def stream(self) -> Iterator[Tuple[int, Optional[RunResult],
                                       Optional[str]]]:
        """Yield ``(index, result, error)`` as each job completes.

        Starts background processing if nothing is running yet; the
        iterator finishes when every request has been reported once.
        """
        if self._processed:  # already settled: replay in submit order
            for index, job_id in enumerate(self.job_ids):
                yield (index, self._results.get(job_id),
                       self._errors.get(job_id))
            return
        if self._thread is None:
            self.start_background()
        assert self._queue is not None
        while True:
            item = self._queue.get()
            if item is _END:
                break
            yield item

    # -- poll --------------------------------------------------------------

    def job_status(self, index: int) -> JobStatus:
        job_id = self.job_ids[index]
        doc = self.spool.job_doc(job_id) or {}
        return JobStatus(
            index=index,
            job_id=job_id,
            state=self.spool.state_of(job_id),
            attempts=int(doc.get("attempts", 0)),
            error=doc.get("error") or self._errors.get(job_id),
        )

    def status(self) -> Dict[str, object]:
        """Per-state counts over the batch's requests (poll surface)."""
        counts = {state.value: 0 for state in JobState}
        unknown = 0
        for job_id in self.job_ids:
            state = self.spool.state_of(job_id)
            if state is None:
                unknown += 1
            else:
                counts[state.value] += 1
        return {
            "batch": self.batch_id,
            "total": len(self.job_ids),
            "deduped": self.deduped,
            "unknown": unknown,
            **counts,
        }

    def done(self) -> bool:
        """True once no request is still pending or running."""
        status = self.status()
        return status["pending"] == 0 and status["running"] == 0

    # -- aggregation -------------------------------------------------------

    def merged_metrics(self) -> MetricsSnapshot:
        """Associative merge of every finished job's metrics snapshot.

        Jobs merge in sorted-job-id order (and the merge itself is
        order-independent), so the aggregate is byte-identical for any
        completion interleaving — including an interrupted-and-resumed
        batch versus an uninterrupted one.
        """
        merged = MetricsSnapshot.empty()
        for job_id in sorted(set(self.job_ids)):
            result = self._results.get(job_id)
            snapshot = result.metrics if result is not None else None
            if snapshot is None:
                payload = self.spool.result_payload(job_id)
                if payload and payload.get("metrics"):
                    snapshot = MetricsSnapshot.from_dict(payload["metrics"])
            if snapshot is not None:
                merged = merged.merge(snapshot)
        return merged
