"""The ``repro report`` driver: regenerate, summarize, ledger.

One :class:`ArtifactSpec` per final artifact.  ``figure`` specs are
*repeatable*: the pipeline regenerates them ``repeats`` times with
seed-varied workloads (:func:`repro.workloads.seed_variant` — repeat 0
uses the canonical labels, so its run-cache keys are byte-identical to
``repro reproduce``'s) and summarizes every reported number with a
seeded-bootstrap 95% CI across the repeats.  ``static`` specs —
tables, the hardware-cost summary, the Flush+Reload traces — are fully
determined by the code, so they are generated once and pinned by
content SHA-256.

Every simulation flows through :func:`repro.harness.api.execute` (via
``execute_batch``), so an immediate warm rerun resolves entirely from
the content-addressed run cache: zero new simulations, zero new cache
misses — the property the warm-cache test asserts.  A
:class:`RunRecorder` subscribes to the harness run observers for the
duration of each artifact's generation and maps it to the exact
:class:`~repro.report.ledger.RunRef`\\ s behind it.

What is derived from the code and the runs alone is memoized beside
them (:func:`~repro.perf.runcache.memoize`): each figure's bootstrap
CIs, keyed by its series, seed and statistics, and each static
artifact's ``(metrics, text)``, keyed by its name and generator
arguments.  A warm rerun therefore reads runs and renders; it neither
resamples nor re-simulates the Flush+Reload PoC.
"""

from __future__ import annotations

import dataclasses
import datetime
import hashlib
from pathlib import Path
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..harness.api import RunResult, add_run_observer, remove_run_observer
from ..obs.exporters import write_jsonl
from ..obs.snapshot import MetricsSnapshot
from ..perf.runcache import (
    canonicalize,
    code_fingerprint,
    content_key,
    default_cache,
    memoize,
)
from ..workloads.profiles import labels as all_labels
from ..workloads.profiles import seed_variant
from .bootstrap import derive_seed, summarize_series
from .ledger import ArtifactEntry, Manifest, MetricStat, RunRef
from .provenance import host_info, repro_knobs
from .writer import atomic_write_text

#: Default relative tolerance for figure metrics in ``report diff``.
#: The simulator is deterministic, so at identical budgets and seeds a
#: regenerated value matches the baseline exactly; 5% is the slack for
#: *intentional* microarchitecture changes small enough not to count
#: as regressions of the reproduction.
DEFAULT_FIGURE_TOLERANCE = 0.05


class RunRecorder:
    """Collects every run observed while generating one artifact.

    Subscribes to the harness run observers on ``__enter__``; results
    are keyed by run-cache key, so the same run reported from both
    ``execute()`` and the batch scheduler's settle path is recorded
    once.  Uncacheable runs (no key) are kept in arrival order.
    """

    def __init__(self) -> None:
        self.runs: Dict[str, RunResult] = {}
        self.uncached: List[RunResult] = []

    def __enter__(self) -> "RunRecorder":
        add_run_observer(self._observe)
        return self

    def __exit__(self, *exc_info) -> None:
        remove_run_observer(self._observe)

    def _observe(self, key: Optional[str], result: RunResult) -> None:
        if key is None and result.provenance is not None:
            key = result.provenance.cache_key
        if key is None:
            self.uncached.append(result)
        else:
            self.runs[key] = result

    @staticmethod
    def _ref(key: Optional[str], result: RunResult, repeat: int) -> RunRef:
        provenance = result.provenance
        return RunRef(
            cache_key=key,
            label=result.metadata.label,
            policy=result.metadata.policy.value,
            mode=result.metadata.mode.value,
            repeat=repeat,
            from_cache=(
                provenance.from_cache if provenance is not None else False
            ),
            wall_seconds=(
                provenance.wall_seconds if provenance is not None else 0.0
            ),
        )

    def refs(self, repeat: int) -> List[RunRef]:
        """One :class:`RunRef` per recorded run, cache-keyed first."""
        return [
            self._ref(key, result, repeat)
            for key, result in sorted(self.runs.items())
        ] + [self._ref(None, result, repeat) for result in self.uncached]

    def snapshots(self) -> List[MetricsSnapshot]:
        """The non-None telemetry snapshots of the recorded runs."""
        ordered = [result for _key, result in sorted(self.runs.items())]
        ordered += self.uncached
        return [
            result.metrics for result in ordered
            if result.metrics is not None
        ]


#: ``generate(workloads, instructions) -> (metrics, text)`` where
#: *workloads* is the (possibly seed-varied) identifier list, or None
#: for static specs.
GenerateFn = Callable[
    [Optional[Sequence[object]], Optional[int]],
    Tuple[Dict[str, float], str],
]


@dataclasses.dataclass(frozen=True)
class ArtifactSpec:
    """How one final artifact is regenerated and summarized."""

    name: str
    filename: str
    kind: str                 # "figure" (repeatable) | "static"
    generate: GenerateFn
    #: Base workload identifiers seed-varied per repeat; None for
    #: static specs (and figure specs with no workload axis).
    labels: Optional[Tuple[str, ...]] = None
    tolerance: float = DEFAULT_FIGURE_TOLERANCE


def _statistic_for(name: str) -> str:
    """Cross-repeat aggregation: geomean rows stay geomeans."""
    return "geomean" if "[geomean]" in name else "mean"


# -- per-artifact generators -----------------------------------------------
#
# Imported lazily inside each generator: the experiment functions pull
# in the whole harness, and this module is reachable from
# ``repro.report`` consumers that never generate anything.


def _gen_fig3(workloads, instructions):
    from ..harness import fig3_serialization_study, render_table

    rows = fig3_serialization_study(
        labels=workloads, instructions=instructions
    )
    metrics = {f"speedup[{row.workload}]": row.speedup for row in rows}
    metrics["rename_stall_fraction[average]"] = rows[-1].rename_stall_fraction
    return metrics, render_table(rows, title="Fig. 3")


def _gen_fig4(workloads, instructions):
    from ..harness import fig4_overhead_breakdown, render_table

    rows = fig4_overhead_breakdown(
        labels=workloads, instructions=instructions
    )
    metrics = {
        f"total_overhead[{row.workload}]": row.total_overhead
        for row in rows
    }
    metrics["compiler_overhead[average]"] = rows[-1].compiler_overhead
    metrics["serialization_overhead[average]"] = (
        rows[-1].serialization_overhead
    )
    return metrics, render_table(rows, title="Fig. 4")


def _gen_fig9(workloads, instructions):
    from ..harness import fig9_normalized_ipc, render_table

    rows = fig9_normalized_ipc(labels=workloads, instructions=instructions)
    metrics = {}
    for row in rows:
        metrics[f"nonsecure_specmpk[{row.workload}]"] = row.nonsecure_specmpk
        metrics[f"specmpk[{row.workload}]"] = row.specmpk
    return metrics, render_table(rows, title="Fig. 9")


def _gen_fig10(workloads, instructions):
    from ..harness import fig10_wrpkru_frequency, render_bars

    rows = fig10_wrpkru_frequency(
        labels=workloads, instructions=instructions
    )
    metrics = {
        f"wrpkru_per_kilo[{row.workload}]": row.wrpkru_per_kilo
        for row in rows
    }
    text = render_bars(
        [(row.workload, row.wrpkru_per_kilo) for row in rows],
        title="Fig. 10",
    )
    return metrics, text


def _gen_fig11(workloads, instructions):
    from ..harness import fig11_rob_pkru_sensitivity, render_table

    rows = fig11_rob_pkru_sensitivity(
        labels=workloads, instructions=instructions
    )
    metrics = {}
    for row in rows:
        for column, value in row.specmpk_by_size:
            metrics[f"{column}[{row.workload}]"] = value
        metrics[f"nonsecure[{row.workload}]"] = row.nonsecure
    return metrics, render_table(rows, title="Fig. 11")


def _gen_mprotect(workloads, instructions):
    from ..harness import motivation_mprotect_vs_mpk, render_table

    rows = motivation_mprotect_vs_mpk(
        labels=workloads, instructions=instructions
    )
    metrics = {
        f"mprotect_slowdown[{row['workload']}]": row["mprotect_slowdown"]
        for row in rows
    }
    return metrics, render_table(rows, title="mprotect vs MPK")


def _gen_ablation_tlb(workloads, instructions):
    from ..harness import ablation_tlb_deferral, render_table

    rows = ablation_tlb_deferral(
        labels=workloads, instructions=instructions
    )
    metrics = {
        f"cost[{row['workload']}]": row["cost"] for row in rows
    }
    return metrics, render_table(rows, title="TLB-deferral ablation")


def _gen_table1(workloads, instructions):
    from ..analysis.isolation_taxonomy import table_i, verify_probes
    from ..harness import render_table

    probes = verify_probes()
    text = render_table(table_i(), title="Table I")
    verified = sum(1 for verdict in probes.values() if verdict)
    text += f"\n\nprobes: {verified}/{len(probes)} verified"
    return {}, text


def _gen_table2(workloads, instructions):
    from ..harness import render_table, table2_source_operands

    return {}, render_table(table2_source_operands(), title="Table II")


def _gen_table3(workloads, instructions):
    from ..harness import render_table, table3_configuration

    return {}, render_table(table3_configuration(), title="Table III")


def _gen_hw(workloads, instructions):
    from ..harness import section8_hardware_overhead

    data = section8_hardware_overhead()
    return {}, (
        f"total: {data['total_bytes']:.1f} B "
        f"({data['l1d_fraction']:.2%} of L1D)"
    )


def _gen_fig13(workloads, instructions):
    from ..harness import fig13_flush_reload, render_latency_series

    data = fig13_flush_reload()
    text = (
        render_latency_series(data["nonsecure_latencies"],
                              title="NonSecure:")
        + "\n"
        + render_latency_series(data["specmpk_latencies"],
                                title="SpecMPK:")
        + f"\n\nnonsecure leaked: {data['nonsecure_leaked']}"
        + f"\nspecmpk leaked: {data['specmpk_leaked']}"
    )
    return {}, text


#: Default label sets mirrored from the experiment functions, spelled
#: out here so the pipeline can seed-vary them per repeat.
_FIG11_LABELS = (
    "500.perlbench_r (SS)", "502.gcc_r (SS)", "520.omnetpp_r (SS)",
    "531.deepsjeng_r (SS)", "541.leela_r (SS)", "453.povray (CPI)",
    "471.omnetpp (CPI)",
)
_MPROTECT_LABELS = (
    "520.omnetpp_r (SS)", "500.perlbench_r (SS)",
    "531.deepsjeng_r (SS)", "471.omnetpp (CPI)",
    "453.povray (CPI)", "557.xz_r (SS)",
)
_ABLATION_LABELS = (
    "505.mcf_r (SS)", "520.omnetpp_r (SS)", "557.xz_r (SS)",
)


def _specs() -> Tuple[ArtifactSpec, ...]:
    every = tuple(all_labels())
    return (
        ArtifactSpec("fig3", "fig3_serialization.txt", "figure",
                     _gen_fig3, labels=every),
        ArtifactSpec("fig4", "fig4_breakdown.txt", "figure",
                     _gen_fig4, labels=every),
        ArtifactSpec("fig9", "fig9_normalized_ipc.txt", "figure",
                     _gen_fig9, labels=every),
        ArtifactSpec("fig10", "fig10_wrpkru_frequency.txt", "figure",
                     _gen_fig10, labels=every),
        ArtifactSpec("fig11", "fig11_robpkru_sensitivity.txt", "figure",
                     _gen_fig11, labels=_FIG11_LABELS),
        ArtifactSpec("mprotect", "motivation_mprotect.txt", "figure",
                     _gen_mprotect, labels=_MPROTECT_LABELS),
        ArtifactSpec("ablation_tlb", "ablation_tlb_stall.txt", "figure",
                     _gen_ablation_tlb, labels=_ABLATION_LABELS),
        ArtifactSpec("fig13", "fig13_flush_reload.txt", "static",
                     _gen_fig13, tolerance=0.0),
        ArtifactSpec("table1", "table1_isolation.txt", "static",
                     _gen_table1, tolerance=0.0),
        ArtifactSpec("table2", "table2_operands.txt", "static",
                     _gen_table2, tolerance=0.0),
        ArtifactSpec("table3", "table3_configuration.txt", "static",
                     _gen_table3, tolerance=0.0),
        ArtifactSpec("hw", "hw_overhead.txt", "static",
                     _gen_hw, tolerance=0.0),
    )


ARTIFACTS: Tuple[ArtifactSpec, ...] = _specs()


def artifact_names() -> List[str]:
    return [spec.name for spec in ARTIFACTS]


@dataclasses.dataclass
class ReportConfig:
    """Everything one ``repro report all`` invocation is parameterized by."""

    out: Path = Path("results/final")
    repeats: int = 3
    #: Instruction budget per point; None = the harness default
    #: (``measurement_budget()``, i.e. ``REPRO_SCALE``-scaled 12k).
    instructions: Optional[int] = None
    #: Bootstrap base seed — per-artifact, per-metric RNG seeds derive
    #: from it, so the same seed always reproduces the same CI bounds.
    seed: int = 0
    #: Artifact-name subset; None regenerates everything.
    only: Optional[Set[str]] = None

    def selected(self) -> List[ArtifactSpec]:
        if self.only is None:
            return list(ARTIFACTS)
        known = {spec.name for spec in ARTIFACTS}
        unknown = self.only - known
        if unknown:
            raise ValueError(
                f"unknown artifact(s) {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        return [spec for spec in ARTIFACTS if spec.name in self.only]


def bootstrap_key(
    series: Dict[str, List[float]], seed: int, statistics: Dict[str, str],
) -> str:
    """Memo key of the CIs :func:`summarize_series` gives for these
    arguments; *seed* derives from the report seed and artifact name."""
    return content_key(
        "bootstrap-v1", canonicalize(series), seed, canonicalize(statistics),
    )


def _generate_artifact(
    spec: ArtifactSpec,
    config: ReportConfig,
    snapshots: List[MetricsSnapshot],
) -> ArtifactEntry:
    series: Dict[str, List[float]] = {}
    runs: List[RunRef] = []
    canonical_text = ""
    repeats = config.repeats if spec.kind == "figure" else 1
    for repeat in range(repeats):
        workloads = None
        if spec.labels is not None:
            workloads = [
                seed_variant(label, repeat) for label in spec.labels
            ]
        with RunRecorder() as recorder:
            if spec.kind == "static":
                metrics, text = memoize(
                    content_key(
                        "static-artifact-v1", spec.name,
                        canonicalize(workloads), config.instructions,
                    ),
                    lambda: spec.generate(workloads, config.instructions),
                )
            else:
                metrics, text = spec.generate(workloads, config.instructions)
        if repeat == 0:
            # Repeat 0 runs the canonical seeds — its rendering IS the
            # published artifact; later repeats only feed the CIs.
            canonical_text = text
        for name, value in metrics.items():
            series.setdefault(name, []).append(float(value))
        runs.extend(recorder.refs(repeat))
        snapshots.extend(recorder.snapshots())
    atomic_write_text(config.out / spec.filename, canonical_text + "\n")
    seed = derive_seed(config.seed, spec.name)
    statistics = {name: _statistic_for(name) for name in series}
    cis = memoize(
        bootstrap_key(series, seed, statistics),
        lambda: summarize_series(series, seed, statistics=statistics),
    )
    return ArtifactEntry(
        name=spec.name,
        path=spec.filename,
        kind=spec.kind,
        content_sha256=hashlib.sha256(
            canonical_text.encode()
        ).hexdigest(),
        repeats=repeats,
        metrics={
            name: MetricStat(name, ci, tolerance=spec.tolerance)
            for name, ci in cis.items()
        },
        runs=runs,
    )


def generate_report(
    config: ReportConfig,
    echo: Optional[Callable[[str], None]] = None,
) -> Tuple[Manifest, Dict[str, int]]:
    """Regenerate the selected artifacts and write the full ledger.

    Produces, under ``config.out``: every artifact file,
    ``manifest.json`` (machine-readable), ``manifest.md`` (rendered)
    and ``metrics.jsonl`` (one telemetry snapshot per underlying run).
    Returns the manifest plus the run-cache hit/miss deltas observed —
    a warm rerun reports zero misses.
    """
    specs = config.selected()
    cache = default_cache()
    hits_before, misses_before = cache.hits, cache.misses
    manifest = Manifest(
        code_fingerprint=code_fingerprint(),
        seed=config.seed,
        repeats=config.repeats,
        instructions=config.instructions,
        knobs=repro_knobs(),
        host=host_info(),
        generated=datetime.datetime.now(
            datetime.timezone.utc
        ).isoformat(timespec="seconds"),
    )
    snapshots: List[MetricsSnapshot] = []
    for spec in specs:
        entry = _generate_artifact(spec, config, snapshots)
        manifest.add(entry)
        if echo is not None:
            echo(
                f"[{entry.name}] {entry.path}: "
                f"{len(entry.metrics)} metric(s), "
                f"{len(entry.runs)} run(s)"
            )
    write_jsonl(config.out / "metrics.jsonl", snapshots)
    manifest.save(config.out / "manifest.json")
    from .ledger import render_manifest_md

    atomic_write_text(
        config.out / "manifest.md", render_manifest_md(manifest) + "\n"
    )
    counters = {
        "artifacts": len(specs),
        "cache_hits": cache.hits - hits_before,
        "cache_misses": cache.misses - misses_before,
        "snapshots": len(snapshots),
    }
    return manifest, counters


def load_or_fail(path: Union[str, Path]) -> Manifest:
    """Load a manifest, raising ``FileNotFoundError`` with guidance."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(
            f"{path} not found — generate it with `repro report all`"
        )
    return Manifest.load(path)
