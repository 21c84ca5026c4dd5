"""The benchmark workloads: generated inputs, set-up, one timed pass, checks.

Each workload is a closed loop with one client: the next call starts
when the previous one returns.  Budgets are constructor arguments so
the tests can run every workload at a tiny size.

Seeds.  Seed 0 gives the canonical inputs: the ledger's report and the
kernel labels of ``BENCH_kernel.json``.  Seed S > 0 replaces every
generated program with ``seed_variant(label, S * REPORT_REPEATS)``, so
the report's repeat r runs offset ``S * R + r`` and no two seeds share
a program.  The report workloads pass the variants as profiles, which
gives every seed its own run-cache keys.  The kernel workloads rebind
the canonical labels to the variants instead, because a time-sharded
run ships its workload to pool workers by label (a profile-addressed
workload cannot be pickled there); they bypass the run cache, so the
shared keys never meet.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: The ledger's pinned report budgets (``results/final/baseline.json``).
REPORT_REPEATS = 2
REPORT_INSTRUCTIONS = 2_000

#: The kernel inputs of ``BENCH_kernel.json``: footprints from 64 KiB
#: (exchange2) to 4 MiB (both mcf), past the 2 MiB L3, and WRPKRU
#: density from dense (omnetpp) to sparse (exchange2).
KERNEL_LABELS = (
    "505.mcf_r (SS)", "429.mcf (CPI)", "520.omnetpp_r (SS)",
    "548.exchange2_r (SS)",
)
KERNEL_INSTRUCTIONS = 60_000
KERNEL_WARMUP = 4_000
#: Measured budget of the untimed priming pass, which translates the
#: hot blocks (in the pool workers too) before the first timed pass.
KERNEL_PRIMING_INSTRUCTIONS = 2_000

SHARDS = 2
POOL_WORKERS = 2
MAX_IPC_ERROR_PCT = 1.0


def variant_offset(seed: int) -> int:
    """Generator-seed offset of benchmark seed *seed*."""
    return seed * REPORT_REPEATS


@dataclasses.dataclass
class Op:
    """One attempted operation and what went wrong with it."""

    name: str
    errors: List[str] = dataclasses.field(default_factory=list)
    stats: Optional[Dict[str, float]] = None


class RunLog:
    """Every run result observed during one pass, one entry per run.

    Subscribed to the harness run observers; results reported twice
    (by ``execute`` and by the batch scheduler) share a cache key and
    are kept once.
    """

    def __init__(self) -> None:
        self.results: Dict[object, object] = {}

    def __call__(self, key, result) -> None:
        self.results[key if key is not None else len(self.results)] = result

    def digest(self) -> str:
        """Hash of every run's identity and ``SimStats``, in any order."""
        lines = sorted(
            json.dumps([
                result.metadata.as_dict(), result.stats.as_dict(),
            ], sort_keys=True)
            for result in self.results.values()
        )
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]

    def counter_totals(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for result in self.results.values():
            if result.metrics is None:
                continue
            for name, value in result.metrics.counters.items():
                totals[name] = totals.get(name, 0) + value
        return totals


class ReportWorkload:
    """``generate_report`` at the ledger's budgets: cold or warm cache.

    One pass per process: a user's ``repro report all`` is a fresh
    interpreter, so its build, translation and import costs are part
    of the work.  Cold starts from an empty run cache; warm reuses the
    cache a cold fill left in the same cache directory.
    """

    def __init__(
        self,
        name: str,
        warm: bool,
        baseline: Optional[Path] = None,
        instructions: int = REPORT_INSTRUCTIONS,
        repeats: int = REPORT_REPEATS,
        only: Optional[Sequence[str]] = None,
    ) -> None:
        self.name = name
        self.warm = warm
        self.counts_cached = warm
        self.baseline_path = baseline
        self.instructions = instructions
        self.repeats = repeats
        self.only = set(only) if only is not None else None
        self.ops: List[Op] = []
        self.reports: List[tuple] = []

    def setup(self, seed: int, workdir: Path) -> None:
        from repro.report import Manifest, pipeline
        from repro.workloads import seed_variant

        self.seed = seed
        self.workdir = workdir
        offset = variant_offset(seed)
        pipeline.ARTIFACTS = tuple(
            dataclasses.replace(spec, labels=tuple(
                seed_variant(label, offset) for label in spec.labels
            )) if spec.labels is not None else spec
            for spec in pipeline._specs()
        )
        self.baseline = (
            Manifest.load(self.baseline_path)
            if self.baseline_path is not None else None
        )

    def _generate(self, out: Path):
        """One report into *out*: ``(manifest, counters, ops)``."""
        from repro.report import ReportConfig, generate_report

        config = ReportConfig(
            out=out, repeats=self.repeats, instructions=self.instructions,
            seed=0, only=self.only,
        )
        ops = [Op(spec.name) for spec in config.selected()]
        self.ops.extend(ops)
        try:
            manifest, counters = generate_report(config)
        except Exception:  # noqa: BLE001 - a failed report fails its ops
            message = traceback.format_exc()
            print(message, file=sys.stderr)
            for op in ops:
                op.errors.append("generate_report raised")
            return None, None, ops
        return manifest, counters, ops

    def run_pass(self) -> None:
        self.reports.append(self._generate(
            self.workdir / ("warm" if self.warm else "cold")
        ))

    def fill(self) -> None:
        """Untimed cold report that leaves the cache a warm pass reads."""
        manifest, _counters, ops = self._generate(self.workdir / "fill")
        if manifest is not None:
            self._check_baseline(manifest, ops)

    def finish(self) -> None:
        """Check every report of the timed passes."""
        for manifest, counters, ops in self.reports:
            if manifest is None:
                continue
            if self.warm:
                self._check_warm(manifest, counters, ops)
            else:
                self._check_baseline(manifest, ops)

    def _check_baseline(self, manifest, ops: List[Op]) -> None:
        """Diff against the checked-in ledger.

        At seed 0 and the ledger's budgets every artifact must match;
        otherwise the inputs differ from the ledger's and only the
        static artifacts, which no seed or budget changes, are compared.
        """
        from repro.report import diff_manifests

        if self.baseline is None:
            return
        full = (
            self.seed == 0
            and self.instructions == self.baseline.instructions
            and self.repeats == self.baseline.repeats
        )
        names = [
            op.name for op in ops
            if full or manifest.artifacts[op.name].kind == "static"
        ]
        report = diff_manifests(self.baseline, manifest, only=names)
        by_name = {op.name: op for op in ops}
        for item in report.failures:
            by_name[item.artifact].errors.append(item.describe())

    def _check_warm(self, manifest, counters, ops: List[Op]) -> None:
        """The warm report equals the cold one and simulates nothing."""
        from repro.report import Manifest

        path = self.workdir / "fill" / "manifest.json"
        if not path.exists():
            for op in ops:
                op.errors.append("the cold fill wrote no manifest")
            return
        cold = Manifest.load(path)
        for op in ops:
            if counters["cache_misses"]:
                op.errors.append(
                    f"{counters['cache_misses']} run-cache misses"
                )
            ours = manifest.artifacts[op.name].as_dict()
            theirs = cold.artifacts[op.name].as_dict()
            for field in ("content_sha256", "metrics"):
                if ours[field] != theirs[field]:
                    op.errors.append(f"{field} differs from the cold report")


def exact_reference(request) -> Dict[str, float]:
    """Monolithic run with exact budgets: the truth a sharded fold tiles.

    Module-level so the worker pool can run it.  ``Simulator.run``
    overshoots a budget by up to ``commit_width - 1``; ``run_window``
    retires exactly, as the shards do.
    """
    from repro.core.pipeline import Simulator
    from repro.harness.api import resolve_workload

    workload = resolve_workload(request)
    sim = Simulator(
        workload.program, request.resolved_config(),
        initial_pkru=workload.initial_pkru,
    )
    sim.prewarm_tlb()
    warmup = request.resolved_warmup()
    instructions = request.resolved_instructions()
    result = sim.run_window(
        max_cycles=200 * (instructions + warmup + 1),
        instructions=instructions, warmup_instructions=warmup,
    )
    if result.fault is not None:
        raise RuntimeError(f"reference run faulted: {result.fault}")
    return result.stats.as_dict()


class KernelWorkload:
    """Eight long uncached ``execute()`` calls, monolithic or sharded.

    {the kernel labels} x {SERIALIZED, SPECMPK}: SERIALIZED exercises
    drain stalls and idle fast-skip, SPECMPK wrong-path speculation.
    Passes repeat in one process after an untimed priming pass, so the
    timing kernel is measured at steady state.
    """

    counts_cached = False

    def __init__(
        self,
        name: str,
        shards: int,
        labels: Sequence[str] = KERNEL_LABELS,
        instructions: int = KERNEL_INSTRUCTIONS,
        warmup: int = KERNEL_WARMUP,
        priming_instructions: int = KERNEL_PRIMING_INSTRUCTIONS,
    ) -> None:
        self.name = name
        self.shards = shards
        self.labels = tuple(labels)
        self.instructions = instructions
        self.warmup = warmup
        self.priming_instructions = priming_instructions
        self.ops: List[Op] = []
        self.ipc_error_pct: List[float] = []

    def setup(self, seed: int, workdir: Path) -> None:
        from repro.core.config import WrpkruPolicy
        from repro.harness.api import RunRequest, execute
        from repro.perf.pool import get_pool, prewarm_pool

        bind_labels(self.labels, seed)
        self.requests = [
            RunRequest(
                workload=label, policy=policy,
                instructions=self.instructions, warmup=self.warmup,
                time_shards=self.shards,
            )
            for label in self.labels
            for policy in (WrpkruPolicy.SERIALIZED, WrpkruPolicy.SPECMPK)
        ]
        if self.shards > 1:
            get_pool(POOL_WORKERS)
            futures = []
            for label in self.labels:
                futures += prewarm_pool(
                    label, self.requests[0].mode.value,
                    max_workers=POOL_WORKERS,
                )
            for future in futures:
                future.result()
        for request in self.requests:
            execute(
                request.replace(instructions=self.priming_instructions),
                cache=False,
            )

    def run_pass(self) -> None:
        from repro.harness import api

        for request in self.requests:
            op = Op(f"{request.workload}/{request.policy.value}")
            self.ops.append(op)
            try:
                op.stats = api.execute(request, cache=False).stats.as_dict()
            except Exception as error:  # noqa: BLE001 - a failed op
                op.errors.append(f"{type(error).__name__}: {error}")

    def finish(self) -> None:
        """Check budgets, repeatability and, sharded, the exact run."""
        count = len(self.requests)
        slack = 0 if self.shards > 1 else (
            self.requests[0].resolved_config().commit_width - 1
        )
        for index, op in enumerate(self.ops):
            if op.stats is None:
                continue
            retired = op.stats["instructions_retired"]
            if not self.instructions <= retired <= self.instructions + slack:
                op.errors.append(
                    f"retired {retired}, budget {self.instructions} "
                    f"(+{slack} allowed)"
                )
            first = self.ops[index % count].stats
            if first is not None and op.stats != first:
                op.errors.append("stats differ from the first pass")
        if self.shards == 1:
            return
        from repro.perf.pool import run_longest_first

        references = run_longest_first(
            exact_reference,
            [request.replace(time_shards=1) for request in self.requests],
            max_workers=POOL_WORKERS,
        )
        for index, op in enumerate(self.ops):
            if op.stats is not None:
                self.ipc_error_pct.append(
                    check_shards(op, references[index % count])
                )


def bind_labels(labels: Sequence[str], seed: int) -> None:
    """Make each of *labels* name its seed-*seed* program in this process.

    Pool workers forked afterwards inherit the binding, so a sharded
    run's workers rebuild the same program by label.
    """
    from repro.workloads import profiles

    offset = variant_offset(seed)
    profiles._BY_LABEL.update({
        profile.label: profiles.seed_variant(profile, offset)
        for profile in profiles.ALL_PROFILES if profile.label in labels
    })


def check_shards(op: Op, reference: Dict[str, float]) -> float:
    """Record on *op* where a sharded run departs from the exact
    monolithic *reference*; returns its IPC error in percent."""
    from repro.perf.timeshard import EXACT_FIELDS

    for field in EXACT_FIELDS:
        if op.stats[field] != reference[field]:
            op.errors.append(
                f"{field} {op.stats[field]} != monolithic {reference[field]}"
            )
    error = 100.0 * abs(op.stats["ipc"] - reference["ipc"]) / reference["ipc"]
    if error > MAX_IPC_ERROR_PCT:
        op.errors.append(f"IPC error {error:.3f}% > {MAX_IPC_ERROR_PCT}%")
    return error


def make(name: str, baseline: Optional[Path] = None, **budgets):
    """The workload called *name*, at default or given budgets."""
    if name == "report-cold":
        return ReportWorkload(name, warm=False, baseline=baseline, **budgets)
    if name == "report-warm":
        return ReportWorkload(name, warm=True, baseline=baseline, **budgets)
    if name == "long-run":
        return KernelWorkload(name, shards=1, **budgets)
    if name == "sharded-run":
        return KernelWorkload(name, shards=SHARDS, **budgets)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("report-cold", "report-warm", "long-run", "sharded-run")
