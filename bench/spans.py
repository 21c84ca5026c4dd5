"""Host-time spans recorded from outside the program.

Nothing in ``src/`` knows it is being measured.  :func:`install`
replaces each public entry point below with a wrapper, patching the
class for methods and every module that imported the name for
functions, and the wrapper records one span per call: its layer,
start and duration.  A layer's *self time* is its spans' duration
minus the time covered by the spans they enclosed, so the self times
of all layers plus the time outside every span (``unattributed_s``)
add up to the traced wall time exactly.

:class:`RunTimer` is the light variant the untraced pass uses: it
times only ``execute()`` calls and run-cache hits, which are the runs
behind ``run_p50_ms``.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Every span layer, in the order the report prints them.
LAYERS = (
    "harness.execute",
    "workloads.build",
    "core.init",
    "core.prewarm",
    "core.run",
    "memory.access",
    "memory.fetch",
    "isa.run",
    "state.fast_forward",
    "timeshard.prepare",
    "timeshard.fold",
    "pool.dispatch",
    "runcache.get",
    "runcache.put",
    "spool.write",
    "service.batch",
    "obs.collect",
    "report.generate",
    "report.bootstrap",
    "report.write",
    "report.static",
)

#: Derived per-layer metrics and their units, after the per-layer
#: ``<layer>.calls`` (count) and ``<layer>.self_s`` (s).
DERIVED_UNITS = {
    "core.kips": "KIPS",
    "core.ns_per_cycle": "ns",
    "core.retired_per_fetched": "ratio",
    "memory.ns_per_access": "ns",
    "memory.l1d.miss_ratio": "ratio",
    "memory.l2.miss_ratio": "ratio",
    "memory.l3.miss_ratio": "ratio",
    "memory.tlb.miss_ratio": "ratio",
    "isa.mips": "MIPS",
    "runcache.hit_ratio": "ratio",
    "runcache.bytes_read": "bytes",
    "runcache.bytes_written": "bytes",
    "pool.job_bytes": "bytes",
    "pool.pickle_s": "s",
    "timeshard.ipc_error_pct": "%",
    "unattributed_s": "s",
    "trace_overhead_pct": "%",
}


def per_layer_units() -> Dict[str, str]:
    """Name -> unit of every per-layer metric, in print order."""
    units: Dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update(DERIVED_UNITS)
    return units


class Patches:
    """Attribute replacements that :meth:`undo` reverts."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def function(self, module, name: str, wrap: Callable) -> None:
        """Wrap ``module.name`` in every loaded module that imported it."""
        original = getattr(module, name)
        wrapper = wrap(original)
        for owner in list(sys.modules.values()):
            if getattr(owner, "__dict__", {}).get(name) is original:
                setattr(owner, name, wrapper)
                self._undo.append((owner, name, original))

    def method(self, cls, name: str, wrap: Callable) -> None:
        original = cls.__dict__[name]
        setattr(cls, name, wrap(original))
        self._undo.append((cls, name, original))

    def undo(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()


class Tracer:
    """Span bookkeeping: calls, self and inclusive time, named counts.

    Spans record only while :attr:`active` is set, which the runner
    keeps to the timed passes.  ``record=False`` layers (the per-access
    memory calls) are aggregated but not kept as trace events.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        max_events: int = 200_000,
    ) -> None:
        self.clock = clock
        self.max_events = max_events
        self.active = False
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.incl_s: Dict[str, float] = {}
        self.counts: Dict[str, float] = {}
        self.root_s = 0.0
        self.events: List[Tuple[str, float, float]] = []
        self.kept: List[object] = []
        self._stack: List[float] = []
        self._depth: Dict[str, int] = {}

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(
        self,
        layer: str,
        fn: Callable,
        record: bool = True,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """A wrapper recording a *layer* span around each call of *fn*.

        For the outermost span of a layer, ``before(args)`` runs
        before the call and ``after(tracer, state, args, kwargs,
        result)`` after it, to count the work the call did; *result*
        is None when the call raised (the Fig. 4 probe ends its
        emulator runs by exceeding their budget).
        """
        tracer = self
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            depth = tracer._depth.get(layer, 0)
            outer = depth == 0
            state = before(args) if before is not None and outer else None
            tracer._depth[layer] = depth + 1
            tracer._stack.append(0.0)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer._depth[layer] = depth
                tracer.close(layer, start, end, outer, record)
                if after is not None and outer:
                    after(tracer, state, args, kwargs, result)
            return result

        return wrapper

    def close(self, layer: str, start: float, end: float,
              outer: bool, record: bool) -> None:
        """Account one finished span (its child time is on the stack)."""
        duration = end - start
        child = self._stack.pop()
        self.calls[layer] = self.calls.get(layer, 0) + 1
        self.self_s[layer] = self.self_s.get(layer, 0.0) + duration - child
        if outer:
            self.incl_s[layer] = self.incl_s.get(layer, 0.0) + duration
        if self._stack:
            self._stack[-1] += duration
        else:
            self.root_s += duration
        if record and len(self.events) < self.max_events:
            self.events.append((layer, start, duration))

    def totals(self) -> Dict[str, object]:
        return {
            "calls": dict(self.calls), "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s), "counts": dict(self.counts),
            "root_s": self.root_s,
        }


def merge_totals(parts: List[Dict[str, object]]) -> Dict[str, object]:
    """Sum the :meth:`Tracer.totals` (plus ``wall_s``) of several runs."""
    merged: Dict[str, object] = {
        "calls": {}, "self_s": {}, "incl_s": {}, "counts": {},
        "root_s": 0.0, "wall_s": 0.0,
    }
    for part in parts:
        for field in ("calls", "self_s", "incl_s", "counts"):
            target = merged[field]
            for name, value in part[field].items():
                target[name] = target.get(name, 0) + value
        merged["root_s"] += part["root_s"]
        merged["wall_s"] += part["wall_s"]
    return merged


def _ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return scale * numerator / denominator if denominator else 0.0


def layer_metrics(totals: Dict[str, object]) -> Dict[str, float]:
    """Every per-layer metric but ``trace_overhead_pct`` from totals."""
    calls, self_s = totals["calls"], totals["self_s"]
    incl, counts = totals["incl_s"], totals["counts"]
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = calls.get(layer, 0)
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    core_s = incl.get("core.run", 0.0)
    metrics["core.kips"] = _ratio(
        counts.get("core.instructions", 0), core_s, 1e-3
    )
    metrics["core.ns_per_cycle"] = _ratio(
        core_s, counts.get("core.cycles", 0), 1e9
    )
    metrics["core.retired_per_fetched"] = _ratio(
        counts.get("core.retired", 0), counts.get("core.fetched", 0)
    )
    metrics["memory.ns_per_access"] = _ratio(
        incl.get("memory.access", 0.0) + incl.get("memory.fetch", 0.0),
        calls.get("memory.access", 0) + calls.get("memory.fetch", 0), 1e9,
    )
    for level in ("l1d", "l2", "l3", "tlb"):
        misses = counts.get(f"memory.{level}.misses", 0)
        metrics[f"memory.{level}.miss_ratio"] = _ratio(
            misses, misses + counts.get(f"memory.{level}.hits", 0)
        )
    metrics["isa.mips"] = _ratio(
        counts.get("isa.instructions", 0), incl.get("isa.run", 0.0), 1e-6
    )
    hits = counts.get("runcache.hits", 0)
    metrics["runcache.hit_ratio"] = _ratio(
        hits, hits + counts.get("runcache.misses", 0)
    )
    for name in ("runcache.bytes_read", "runcache.bytes_written",
                 "pool.job_bytes", "pool.pickle_s",
                 "timeshard.ipc_error_pct"):
        metrics[name] = counts.get(name, 0)
    metrics["unattributed_s"] = totals["wall_s"] - totals["root_s"]
    return metrics


def chrome_trace(processes: List[Tuple[str, List]]) -> Dict[str, object]:
    """Chrome ``trace_event`` JSON: one process per traced child.

    Each event is ``(name, start_s, duration_s)`` with starts relative
    to that child's first timed pass.
    """
    events: List[Dict[str, object]] = []
    for pid, (name, spans) in enumerate(processes):
        events.append({"ph": "M", "pid": pid, "name": "process_name",
                       "args": {"name": name}})
        for layer, start, duration in spans:
            events.append({
                "ph": "X", "pid": pid, "tid": 0, "name": layer,
                "cat": layer.split(".")[0],
                "ts": round(start * 1e6, 3), "dur": round(duration * 1e6, 3),
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# -- wiring into the program ------------------------------------------------


def _sim_before(args):
    return args[0].cycle


def _sim_after(tracer, cycle, args, kwargs, result):
    if result is None:
        return
    sim, stats = args[0], result.stats
    warmup = kwargs.get("warmup_instructions", args[3] if len(args) > 3 else 0)
    tracer.count("core.cycles", sim.cycle - cycle)
    tracer.count("core.instructions", warmup + stats.instructions_retired)
    tracer.count("core.retired", stats.instructions_retired)
    tracer.count("core.fetched", stats.instructions_fetched)


def _emulator_before(args):
    return args[0].instructions_executed


def _emulator_after(tracer, executed, args, kwargs, result):
    tracer.count("isa.instructions", args[0].instructions_executed - executed)


def _cache_hit(tracer, _state, args, kwargs, result):
    if result is not None:
        tracer.count("runcache.hits")
        tracer.count("runcache.bytes_read",
                     os.path.getsize(args[0]._path(args[1])))


def _cache_get(tracer, state, args, kwargs, result):
    if result is None:
        tracer.count("runcache.misses")
    _cache_hit(tracer, state, args, kwargs, result)


def _cache_put(tracer, _state, args, kwargs, result):
    tracer.count("runcache.bytes_written",
                 os.path.getsize(args[0]._path(args[1])))


def _keep_jobs(tracer, _state, args, kwargs, result):
    if result is not None:
        tracer.kept.extend(result[0])


def install(tracer: Tracer, patches: Patches) -> None:
    """Wrap every layer boundary of the program in *tracer* spans."""
    from repro.core.pipeline import Simulator
    from repro.harness import api
    from repro.isa.emulator import Emulator
    from repro.memory.hierarchy import MemoryHierarchy
    from repro.obs import collect, exporters
    from repro.perf import pool, timeshard
    from repro.perf.runcache import RunCache
    from repro.report import bootstrap, pipeline, writer
    from repro.service import scheduler, spool
    from repro.state import fastforward
    from repro.workloads import generator

    def span(layer, **hooks):
        return lambda fn: tracer.wrap(layer, fn, **hooks)

    patches.function(api, "execute", span("harness.execute"))
    patches.function(generator, "build_workload", span("workloads.build"))
    patches.method(Simulator, "__init__", span("core.init"))
    patches.method(Simulator, "prewarm_tlb", span("core.prewarm"))
    for name in ("run", "run_window"):
        patches.method(Simulator, name, span(
            "core.run", before=_sim_before, after=_sim_after,
        ))
    patches.method(MemoryHierarchy, "access",
                   span("memory.access", record=False))
    patches.method(MemoryHierarchy, "fetch_access",
                   span("memory.fetch", record=False))
    for name in ("run", "run_fast"):
        patches.method(Emulator, name, span(
            "isa.run", before=_emulator_before, after=_emulator_after,
        ))
    patches.function(fastforward, "fast_forward", span("state.fast_forward"))
    patches.function(timeshard, "prepare_request",
                     span("timeshard.prepare", after=_keep_jobs))
    patches.function(timeshard, "fold_outcomes", span("timeshard.fold"))
    patches.function(pool, "run_longest_first", span("pool.dispatch"))
    patches.method(RunCache, "get", span("runcache.get", after=_cache_get))
    patches.method(RunCache, "peek", span("runcache.get", after=_cache_hit))
    patches.method(RunCache, "put", span("runcache.put", after=_cache_put))
    for name in ("add_job", "claim", "complete", "create_batch"):
        patches.method(spool.SpoolDir, name, span("spool.write"))
    for name in ("submit", "process"):
        patches.method(scheduler.SweepService, name, span("service.batch"))
    patches.function(collect, "collect_run_metrics", span("obs.collect"))
    patches.function(bootstrap, "summarize_series", span("report.bootstrap"))
    patches.function(writer, "atomic_write_text", span("report.write"))
    patches.function(exporters, "write_jsonl", span("report.write"))

    def artifact(fn):
        figure = tracer.wrap("report.generate", fn)
        static = tracer.wrap("report.static", fn)

        @functools.wraps(fn)
        def by_kind(spec, *args, **kwargs):
            chosen = static if spec.kind == "static" else figure
            return chosen(spec, *args, **kwargs)

        return by_kind

    patches.function(pipeline, "_generate_artifact", artifact)


class RunTimer:
    """Latency of every run: ``execute()`` calls and run-cache hits.

    The batch scheduler resolves cached jobs with ``RunCache.peek``
    before any ``execute()``, so a warm report's runs are those hits.
    Each sample is ``(seconds, from_cache, simulated_instructions)``.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.active = False
        self.runs: List[Tuple[float, bool, int]] = []

    def install(self, patches: Patches) -> None:
        from repro.harness import api
        from repro.perf.runcache import RunCache

        timer = self

        def timed_execute(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                start = timer.clock()
                result = fn(*args, **kwargs)
                if timer.active:
                    provenance = result.provenance
                    cached = provenance is not None and provenance.from_cache
                    meta = result.metadata
                    timer.runs.append((
                        timer.clock() - start, cached,
                        0 if cached else meta.instructions + meta.warmup,
                    ))
                return result
            return wrapper

        def timed_peek(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                start = timer.clock()
                result = fn(*args, **kwargs)
                if timer.active and result is not None:
                    timer.runs.append((timer.clock() - start, True, 0))
                return result
            return wrapper

        patches.function(api, "execute", timed_execute)
        patches.method(RunCache, "peek", timed_peek)
