"""Command-line driver: ``python -m repro <command>``.

Commands:

* ``info`` — version, Table III configuration, workload list.
* ``run`` — simulate one workload under one (or every) WRPKRU policy.
* ``trace`` — traced run: top-down CPI report, Chrome trace JSON,
  Konata-style pipeline view.
* ``attack`` — run a transient-execution PoC across policies.
* ``checkpoint`` — functionally fast-forward a workload and write a
  picklable resume point (optionally resume the timing core from it).
* ``simpoint`` — SimPoint flow: profile BBVs, cluster, checkpoint the
  representatives, report the weighted IPC per policy.
* ``metrics`` — telemetry snapshots: dump one run's metrics (JSON or
  Prometheus text), diff two saved snapshots, or list the top counters.
* ``submit`` / ``serve`` / ``status`` — the sweep service: queue a
  label x policy batch into an on-disk spool, drain it (resuming after
  crashes, deduplicating against the run cache), and inspect batch
  progress or export per-job metrics JSONL.
* ``bench`` — simulator throughput: ``bench kernel`` measures cycle-
  kernel KIPS on the calibrated profiles, optionally comparing the
  staged timing engine against the legacy single-step engine
  (``--compare``) and gating against a checked-in baseline
  (``--baseline``).
* ``reproduce`` — regenerate paper tables/figures into a directory.
* ``report`` — the results-observability pipeline: ``report all``
  regenerates every final artifact with seed-varied repeats and
  bootstrap confidence intervals, writing the provenance ledger
  (``manifest.json``/``manifest.md`` + ``metrics.jsonl``); ``report
  diff`` verifies a regenerated manifest against the checked-in
  baseline with per-metric tolerances (the CI smoke tier).
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import List, Optional


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="SpecMPK reproduction driver",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="show configuration and workloads")

    run_parser = sub.add_parser("run", help="simulate one workload")
    run_parser.add_argument("label", help='e.g. "520.omnetpp_r (SS)"')
    run_parser.add_argument(
        "--policy", choices=["serialized", "nonsecure_spec", "specmpk",
                             "all"],
        default="all",
    )
    run_parser.add_argument("--instructions", type=int, default=None)
    run_parser.add_argument(
        "--fastforward", action="store_true",
        help="run the warmup window on the functional emulator",
    )
    run_parser.add_argument(
        "--json", action="store_true",
        help="emit machine-readable statistics instead of the report",
    )

    trace_parser = sub.add_parser(
        "trace", help="traced run: top-down report + pipeline traces"
    )
    trace_parser.add_argument("label", help='e.g. "520.omnetpp_r (SS)"')
    trace_parser.add_argument(
        "--policy", choices=["serialized", "nonsecure_spec", "specmpk"],
        default="specmpk",
    )
    trace_parser.add_argument("--instructions", type=int, default=None)
    trace_parser.add_argument("--warmup", type=int, default=None)
    trace_parser.add_argument(
        "--out", type=pathlib.Path, default=pathlib.Path("results"),
        help="directory for the exported trace files",
    )
    trace_parser.add_argument(
        "--format", choices=["chrome", "konata", "topdown", "all"],
        default="all",
        help="which artifacts to produce (default: all)",
    )
    trace_parser.add_argument(
        "--capacity", type=int, default=1 << 16,
        help="event/cycle ring-buffer capacity",
    )
    trace_parser.add_argument(
        "--last", type=int, default=32,
        help="instructions shown in the Konata-style text view",
    )

    attack_parser = sub.add_parser("attack", help="run a PoC attack")
    attack_parser.add_argument(
        "name", choices=["v1", "bti", "overflow", "chosen"],
    )

    compile_parser = sub.add_parser(
        "compile", help="compile a MiniC file and run it"
    )
    compile_parser.add_argument("path", type=pathlib.Path)
    compile_parser.add_argument(
        "--policy", choices=["serialized", "nonsecure_spec", "specmpk",
                             "all"],
        default="specmpk",
    )
    compile_parser.add_argument("--shadow-stack", action="store_true")
    compile_parser.add_argument(
        "--no-secure-arrays", action="store_true",
        help="ignore `secure` declarations (unprotected baseline build)",
    )
    compile_parser.add_argument(
        "--emit-asm", action="store_true",
        help="print the generated assembly listing and exit",
    )

    ckpt_parser = sub.add_parser(
        "checkpoint", help="fast-forward a workload to a checkpoint file"
    )
    ckpt_parser.add_argument("label", help='e.g. "520.omnetpp_r (SS)"')
    ckpt_parser.add_argument(
        "--at", type=int, default=50_000,
        help="instructions to fast-forward before checkpointing",
    )
    ckpt_parser.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="checkpoint file (default: results/<label>.ckpt)",
    )
    ckpt_parser.add_argument(
        "--policy", choices=["serialized", "nonsecure_spec", "specmpk"],
        default="specmpk", help="core policy used with --measure",
    )
    ckpt_parser.add_argument(
        "--measure", type=int, default=0,
        help="resume the timing core from the written checkpoint and "
             "measure this many instructions",
    )

    simpoint_parser = sub.add_parser(
        "simpoint",
        help="SimPoint flow: profile, cluster, measure weighted IPC",
    )
    simpoint_parser.add_argument("label", help='e.g. "520.omnetpp_r (SS)"')
    simpoint_parser.add_argument(
        "--policy", choices=["serialized", "nonsecure_spec", "specmpk",
                             "all"],
        default="all",
    )
    simpoint_parser.add_argument("--interval-length", type=int,
                                 default=10_000)
    simpoint_parser.add_argument("--profile-instructions", type=int,
                                 default=200_000)
    simpoint_parser.add_argument("--top-n", type=int, default=5)
    simpoint_parser.add_argument(
        "--no-fastforward", action="store_true",
        help="timing-simulate every interval prefix (slow accuracy "
             "reference) instead of resuming from checkpoints",
    )
    simpoint_parser.add_argument(
        "--parallel", action="store_true",
        help="measure the intervals in parallel worker processes",
    )
    simpoint_parser.add_argument("--json", action="store_true")

    metrics_parser = sub.add_parser(
        "metrics", help="dump, diff or query telemetry snapshots"
    )
    metrics_sub = metrics_parser.add_subparsers(
        dest="metrics_command", required=True
    )
    mdump = metrics_sub.add_parser(
        "dump", help="run one workload and emit its metrics snapshot"
    )
    mdump.add_argument("label", help='e.g. "520.omnetpp_r (SS)"')
    mdump.add_argument(
        "--policy", choices=["serialized", "nonsecure_spec", "specmpk"],
        default="specmpk",
    )
    mdump.add_argument("--instructions", type=int, default=None)
    mdump.add_argument(
        "--format", choices=["json", "prom"], default="json",
        help="JSON snapshot or Prometheus text exposition",
    )
    mdump.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="write to this file instead of stdout",
    )
    mdiff = metrics_sub.add_parser(
        "diff", help="compare two saved snapshots (JSON or JSONL files)"
    )
    mdiff.add_argument("snapshot_a", type=pathlib.Path)
    mdiff.add_argument("snapshot_b", type=pathlib.Path)
    mdiff.add_argument("-n", "--top", type=int, default=15,
                       help="movers shown (by absolute change)")
    mtop = metrics_sub.add_parser(
        "top", help="largest counters in a saved snapshot"
    )
    mtop.add_argument("snapshot", type=pathlib.Path)
    mtop.add_argument("-n", "--top", type=int, default=15)
    mtop.add_argument("--prefix", default=None,
                      help='dotted subsystem filter, e.g. "mpk"')

    cache_parser = sub.add_parser(
        "cache", help="inspect or clear the on-disk run cache"
    )
    cache_parser.add_argument(
        "action", choices=["stats", "clear"],
        help="stats: entry count/size/location; clear: delete entries",
    )
    cache_parser.add_argument("--json", action="store_true")

    submit_parser = sub.add_parser(
        "submit", help="queue a batch of runs in the sweep spool"
    )
    submit_parser.add_argument(
        "labels", nargs="*", help='workload labels, e.g. "520.omnetpp_r (SS)"'
    )
    submit_parser.add_argument(
        "--all-labels", action="store_true",
        help="sweep every known workload profile",
    )
    submit_parser.add_argument(
        "--policy", choices=["serialized", "nonsecure_spec", "specmpk",
                             "all"],
        default="all",
    )
    submit_parser.add_argument(
        "--mode", choices=["none", "protected", "protected_nop"],
        default="protected",
    )
    submit_parser.add_argument("--instructions", type=int, default=None)
    submit_parser.add_argument("--warmup", type=int, default=None)
    submit_parser.add_argument("--fastforward", action="store_true")
    submit_parser.add_argument(
        "--time-shards", type=int, default=None,
        help="split each detailed run into this many checkpoint-sharded "
             "windows over the worker pool (default: REPRO_TIME_SHARDS)",
    )
    submit_parser.add_argument(
        "--shard-warmup", type=int, default=None,
        help="stats-excluded detailed warmup replayed before each shard "
             "window (default: the timeshard module default)",
    )
    submit_parser.add_argument(
        "--spool", type=pathlib.Path, default=None,
        help="spool directory (default: REPRO_SPOOL_DIR or the XDG cache)",
    )
    submit_parser.add_argument("--batch-id", default=None)
    submit_parser.add_argument(
        "--watch", action="store_true",
        help="poll the spool until the batch settles, showing per-job "
             "state and intra-run shard progress (drain it with a "
             "concurrent `repro serve`)",
    )
    submit_parser.add_argument(
        "--poll-interval", type=float, default=1.0,
        help="seconds between --watch polls",
    )
    submit_parser.add_argument("--json", action="store_true")

    serve_parser = sub.add_parser(
        "serve", help="drain the sweep spool (resumes after crashes)"
    )
    serve_parser.add_argument(
        "--spool", type=pathlib.Path, default=None,
        help="spool directory (default: REPRO_SPOOL_DIR or the XDG cache)",
    )
    serve_parser.add_argument(
        "--watch", action="store_true",
        help="keep polling for new jobs instead of one drain pass",
    )
    serve_parser.add_argument("--poll-interval", type=float, default=1.0)
    serve_parser.add_argument(
        "--parallel", action="store_true", default=None,
        help="fan jobs out over the worker pool and this process (the "
             "default with more than one CPU; REPRO_PARALLEL=0 keeps them "
             "in-process)",
    )
    serve_parser.add_argument("--max-workers", type=int, default=None)
    serve_parser.add_argument("--max-retries", type=int, default=1)
    serve_parser.add_argument(
        "--max-iterations", type=int, default=None,
        help="stop --watch after this many drain passes",
    )
    serve_parser.add_argument(
        "--metrics-out", type=pathlib.Path, default=None,
        help="append one metrics-JSONL line per settled job",
    )
    serve_parser.add_argument("--json", action="store_true")

    status_parser = sub.add_parser(
        "status", help="spool / batch progress and metrics export"
    )
    status_parser.add_argument(
        "batch", nargs="?", default=None,
        help="batch id (default: whole-spool summary)",
    )
    status_parser.add_argument(
        "--spool", type=pathlib.Path, default=None,
        help="spool directory (default: REPRO_SPOOL_DIR or the XDG cache)",
    )
    status_parser.add_argument(
        "--metrics-out", type=pathlib.Path, default=None,
        help="write one metrics-JSONL line per done job in the batch",
    )
    status_parser.add_argument("--json", action="store_true")

    bench_parser = sub.add_parser(
        "bench", help="simulator throughput benchmarks"
    )
    bench_sub = bench_parser.add_subparsers(
        dest="bench_command", required=True
    )
    bkernel = bench_sub.add_parser(
        "kernel", help="cycle-kernel KIPS (timing-core throughput)"
    )
    bkernel.add_argument(
        "--compare", action="store_true",
        help="also run the legacy single-step engine and report the "
             "staged timing engine's speedup per label",
    )
    bkernel.add_argument(
        "--labels", nargs="*", default=None,
        help="profiles to measure (default: the four KIPS-gate profiles)",
    )
    bkernel.add_argument("--instructions", type=int, default=None)
    bkernel.add_argument("--warmup", type=int, default=None)
    bkernel.add_argument("--repeats", type=int, default=None)
    bkernel.add_argument(
        "--baseline", type=pathlib.Path, default=None,
        help="BENCH_kernel.json to gate against (exit 1 on regression; "
             "REPRO_KIPS_SCALE normalises the floors for host speed)",
    )
    bkernel.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="write the JSON report to this file",
    )
    bkernel.add_argument("--json", action="store_true")
    bkernel.add_argument(
        "--profile", action="store_true",
        help="add a cProfile breakdown per pipeline stage to the "
             "report (separate instrumented runs; does not affect the "
             "KIPS numbers)",
    )
    bfullrun = bench_sub.add_parser(
        "fullrun", help="time-sharded full-run speedup and accuracy"
    )
    bfullrun.add_argument(
        "--labels", nargs="*", default=None,
        help="profiles to measure (default: the fullrun-gate profile)",
    )
    bfullrun.add_argument("--instructions", type=int, default=None)
    bfullrun.add_argument("--warmup", type=int, default=None)
    bfullrun.add_argument(
        "--shards", type=int, default=None,
        help="time shards per run (default: the baseline's 4)",
    )
    bfullrun.add_argument("--shard-warmup", type=int, default=None)
    bfullrun.add_argument("--repeats", type=int, default=None)
    bfullrun.add_argument(
        "--baseline", type=pathlib.Path, default=None,
        help="BENCH_fullrun.json to gate against (exit 1 on regression; "
             "accuracy bounds always apply, the speedup floor only on "
             "hosts with enough cores; REPRO_FULLRUN_SCALE normalises "
             "the floor for host speed)",
    )
    bfullrun.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="write the JSON report to this file",
    )
    bfullrun.add_argument("--json", action="store_true")

    repro_parser = sub.add_parser(
        "reproduce", help="regenerate paper tables/figures"
    )
    repro_parser.add_argument(
        "--experiments",
        default="all",
        help="comma-separated subset: fig3,fig4,fig9,fig10,fig11,fig13,"
             "table1,table2,table3,hw,mprotect (default: all)",
    )
    repro_parser.add_argument(
        "--out", type=pathlib.Path, default=pathlib.Path("results"),
    )
    repro_parser.add_argument(
        "--shards", type=int, default=None, metavar="K",
        help="time-shard every detailed run into K checkpointed "
             "intervals over the worker pool (default: "
             "REPRO_TIME_SHARDS, else 1 — the exact monolithic path)",
    )

    report_parser = sub.add_parser(
        "report",
        help="provenance ledger: regenerate artifacts with bootstrap "
             "CIs, or diff against the checked-in baseline",
    )
    report_parser.add_argument(
        "action", nargs="?", choices=["all", "diff"], default="all",
        help="all: regenerate + write the ledger; diff: verify a "
             "written manifest against a baseline manifest",
    )
    report_parser.add_argument(
        "--only", default=None,
        help="comma-separated artifact subset, e.g. fig9,fig10,table3",
    )
    report_parser.add_argument(
        "--repeats", type=int, default=3,
        help="seed-varied repeats per figure (CIs; default 3)",
    )
    report_parser.add_argument(
        "--instructions", type=int, default=None,
        help="instruction budget per point (default: the harness "
             "measurement budget)",
    )
    report_parser.add_argument(
        "--seed", type=int, default=0,
        help="bootstrap base seed (same seed -> identical CI bounds)",
    )
    report_parser.add_argument(
        "--out", type=pathlib.Path,
        default=pathlib.Path("results/final"),
        help="ledger directory (default: results/final)",
    )
    report_parser.add_argument(
        "--baseline", type=pathlib.Path, default=None,
        help="baseline manifest for `diff` (default: "
             "<out>/baseline.json)",
    )
    report_parser.add_argument(
        "--write-baseline", action="store_true",
        help="after `all`, also copy the manifest to the baseline path",
    )
    report_parser.add_argument("--json", action="store_true")

    args = parser.parse_args(argv)
    if args.command == "info":
        return _cmd_info()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "attack":
        return _cmd_attack(args)
    if args.command == "compile":
        return _cmd_compile(args)
    if args.command == "checkpoint":
        return _cmd_checkpoint(args)
    if args.command == "simpoint":
        return _cmd_simpoint(args)
    if args.command == "metrics":
        return _cmd_metrics(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "status":
        return _cmd_status(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "reproduce":
        return _cmd_reproduce(args)
    if args.command == "report":
        return _cmd_report(args)
    return 2  # pragma: no cover - argparse enforces the choices


def _cmd_info() -> int:
    import repro
    from repro.harness import render_table, table3_configuration
    from repro.workloads import ALL_PROFILES

    print(f"SpecMPK reproduction v{repro.__version__}")
    print()
    print(render_table(table3_configuration(), title="Core configuration"))
    print()
    print("Workloads:")
    for profile in ALL_PROFILES:
        print(f"  {profile.label:26s} ({profile.suite}, "
              f"{profile.working_set_kib} KiB working set)")
    return 0


def _cmd_metrics(args) -> int:
    from repro.obs import load_snapshot, prometheus_text

    if args.metrics_command == "dump":
        from repro.core import WrpkruPolicy
        from repro.harness import RunRequest, execute

        result = execute(RunRequest(
            workload=args.label,
            policy=WrpkruPolicy(args.policy),
            instructions=args.instructions,
            metrics=True,
        ))
        snapshot = result.metrics
        if args.format == "prom":
            text = prometheus_text(snapshot)
        else:
            text = snapshot.to_json(indent=2)
        if args.out is not None:
            args.out.parent.mkdir(parents=True, exist_ok=True)
            args.out.write_text(text + "\n")
            print(f"metrics written to {args.out}")
        else:
            print(text)
        return 0
    if args.metrics_command == "diff":
        after = load_snapshot(args.snapshot_a)
        before = load_snapshot(args.snapshot_b)
        delta = after.diff(before)
        movers = delta.top(args.top, by_magnitude=True)
        print(f"=== {args.snapshot_a} - {args.snapshot_b} "
              f"(top {args.top} by |change|) ===")
        if not movers:
            print("  (no counter changed)")
        for name, value in movers:
            print(f"  {name:45s} {value:+.0f}")
        for name in sorted(delta.gauges):
            change = delta.gauges[name]
            if change:
                print(f"  {name:45s} {change:+.4f} (gauge)")
        return 0
    # top
    snapshot = load_snapshot(args.snapshot)
    rows = snapshot.top(args.top, prefix=args.prefix)
    scope = f' under "{args.prefix}"' if args.prefix else ""
    print(f"=== top {len(rows)} counters{scope} ===")
    for name, value in rows:
        print(f"  {name:45s} {value:.0f}")
    return 0


def _cmd_cache(args) -> int:
    import json

    from repro.perf.runcache import cache_enabled, default_cache

    cache = default_cache()
    if args.action == "clear":
        removed = cache.clear()
        if args.json:
            print(json.dumps({"cleared": removed}))
        else:
            print(f"cleared {removed} cached run(s) from {cache.directory}")
        return 0
    stats = cache.stats()
    stats["enabled"] = cache_enabled()
    if args.json:
        print(json.dumps(stats, indent=2))
    else:
        state = "enabled" if stats["enabled"] else "disabled (REPRO_CACHE=0)"
        print(f"run cache: {state}")
        print(f"  directory: {stats['directory']}")
        print(f"  entries:   {stats['entries']} "
              f"({stats['bytes'] / 1024:.1f} KiB)")
        print(f"  this process: {stats['hits']} hit(s), "
              f"{stats['misses']} miss(es)")
        print(f"  lifetime:  {stats['lifetime_hits']} hit(s), "
              f"{stats['lifetime_misses']} miss(es)")
    return 0


def _cmd_run(args) -> int:
    import json

    from repro.core import WrpkruPolicy
    from repro.harness import RunRequest, execute

    policies = (
        list(WrpkruPolicy)
        if args.policy == "all"
        else [WrpkruPolicy(args.policy)]
    )
    baseline = None
    json_out = {}
    for policy in policies:
        stats = execute(RunRequest(
            workload=args.label,
            policy=policy,
            instructions=args.instructions,
            fastforward=args.fastforward,
        )).stats
        if baseline is None:
            baseline = stats.ipc
        if args.json:
            json_out[policy.value] = stats.as_dict()
            continue
        print(f"=== {args.label} under {policy.value} ===")
        print(stats.report())
        if policy is not policies[0]:
            print(f"normalized IPC vs {policies[0].value}: "
                  f"{stats.ipc / baseline:.3f}")
        print()
    if args.json:
        print(json.dumps({"workload": args.label, "runs": json_out},
                         indent=2))
    return 0


def _cmd_trace(args) -> int:
    from repro.core import WrpkruPolicy
    from repro.harness import RunRequest, TraceOptions, execute
    from repro.trace import export_chrome_trace, render_pipeline_text

    result = execute(RunRequest(
        workload=args.label,
        policy=WrpkruPolicy(args.policy),
        instructions=args.instructions,
        warmup=args.warmup,
        trace=TraceOptions(
            enabled=True,
            capacity=args.capacity,
            cycle_capacity=args.capacity,
        ),
    ))
    wants = (
        {"chrome", "konata", "topdown"}
        if args.format == "all" else {args.format}
    )
    print(f"=== {args.label} under {args.policy} "
          f"({result.metadata.instructions} measured instructions) ===")
    if "topdown" in wants:
        print()
        print(result.topdown().report())
    args.out.mkdir(parents=True, exist_ok=True)
    stem = args.label.replace(" ", "_").replace("(", "").replace(")", "")
    if "chrome" in wants:
        path = args.out / f"{stem}.{args.policy}.trace.json"
        export_chrome_trace(result.trace, path)
        print(f"\nChrome trace written to {path}"
              "\n  (load in chrome://tracing or https://ui.perfetto.dev)")
    if "konata" in wants:
        path = args.out / f"{stem}.{args.policy}.pipeline.txt"
        text = render_pipeline_text(result.trace, last=args.last)
        path.write_text(text + "\n")
        print(f"\nPipeline view ({args.last} most recent instructions):")
        print(text)
        print(f"\nwritten to {path}")
    return 0


def _cmd_attack(args) -> int:
    from repro.attacks import (
        build_chosen_code_poc,
        build_spectre_bti_poc,
        build_spectre_v1_poc,
        build_speculative_overflow_poc,
        run_attack,
    )
    from repro.core import WrpkruPolicy

    builders = {
        "v1": (build_spectre_v1_poc, False),
        "bti": (build_spectre_bti_poc, False),
        "overflow": (build_speculative_overflow_poc, False),
        "chosen": (build_chosen_code_poc, True),
    }
    builder, expect_fault = builders[args.name]
    attack = builder()
    leaked_anywhere = False
    for policy in WrpkruPolicy:
        result = run_attack(attack, policy, expect_fault=expect_fault)
        verdict = "LEAKED" if result.leaked else "mitigated"
        leaked_anywhere |= result.leaked
        print(f"{policy.value:15s}: {verdict} "
              f"(hot probe values: {result.hot_values or '-'})")
    return 0 if leaked_anywhere else 1  # v1 must leak somewhere


def _cmd_compile(args) -> int:
    from repro.core import CoreConfig, Simulator, WrpkruPolicy
    from repro.lang import CompileOptions, compile_module

    source = args.path.read_text()
    options = CompileOptions(
        shadow_stack=args.shadow_stack,
        protect_secure_arrays=not args.no_secure_arrays,
    )
    compiled = compile_module(source, options)
    wrpkrus = sum(
        1 for inst in compiled.program.instructions if inst.is_wrpkru
    )
    print(f"compiled {args.path}: {len(compiled.program)} instructions, "
          f"{wrpkrus} WRPKRU sites")
    if args.emit_asm:
        print(compiled.program.listing())
        return 0
    policies = (
        list(WrpkruPolicy)
        if args.policy == "all"
        else [WrpkruPolicy(args.policy)]
    )
    for policy in policies:
        sim = Simulator(
            compiled.program, CoreConfig(wrpkru_policy=policy),
            initial_pkru=compiled.initial_pkru,
        )
        sim.prewarm_tlb()
        result = sim.run(max_cycles=10_000_000)
        if result.fault is not None:
            print(f"{policy.value}: FAULT: {result.fault}")
            return 1
        value = sim.prf.read(
            sim.rename_tables.amt[compiled.result_register()]
        )
        print(f"{policy.value:15s}: main() = {value} "
              f"({sim.stats.cycles} cycles, IPC {sim.stats.ipc:.2f})")
    return 0


def _cmd_checkpoint(args) -> int:
    from repro.core import CoreConfig, WrpkruPolicy
    from repro.isa.emulator import make_emulator
    from repro.state import (
        Checkpoint,
        CheckpointError,
        WarmTouch,
        fast_forward,
        resume_simulator,
        take_checkpoint,
    )
    from repro.workloads import build_workload, profile_by_label

    workload = build_workload(profile_by_label(args.label))
    emulator = make_emulator(workload)
    warm = WarmTouch()
    executed = fast_forward(emulator, args.at, warm=warm)
    try:
        checkpoint = take_checkpoint(
            emulator, label=f"{args.label} @ {executed}", warm=warm
        )
    except CheckpointError as error:
        print(f"error: {error} (program halted after {executed} "
              "instructions)")
        return 1
    stem = args.label.replace(" ", "_").replace("(", "").replace(")", "")
    out = args.out or pathlib.Path("results") / f"{stem}.ckpt"
    out.parent.mkdir(parents=True, exist_ok=True)
    checkpoint.dump(out)
    image = checkpoint.snapshot.memory
    print(f"checkpoint written to {out}")
    print(f"  position    : {checkpoint.instructions} instructions")
    print(f"  pc          : {checkpoint.snapshot.pc}")
    print(f"  pkru        : {checkpoint.snapshot.pkru:#06x}")
    print(f"  dirty pages : {image.dirty_pages()} "
          f"(chain depth {image.chain_length()})")
    print(f"  size        : {out.stat().st_size} bytes")
    if args.measure:
        config = CoreConfig(wrpkru_policy=WrpkruPolicy(args.policy))
        sim = resume_simulator(
            workload.program, Checkpoint.load(out), config=config
        )
        result = sim.run(
            max_cycles=500 * (args.measure + 1),
            max_instructions=args.measure,
        )
        if result.fault is not None:
            print(f"resumed run faulted: {result.fault}")
            return 1
        print(f"resumed {args.policy}: {result.stats.instructions_retired} "
              f"instructions in {result.stats.cycles} cycles "
              f"(IPC {result.stats.ipc:.3f})")
    return 0


def _cmd_simpoint(args) -> int:
    import json

    from repro.core import CoreConfig, WrpkruPolicy
    from repro.simpoint import collect_bbv, select_simpoints, weighted_ipc
    from repro.workloads import build_workload, profile_by_label

    workload = build_workload(profile_by_label(args.label))
    profile = collect_bbv(
        workload.program,
        interval_length=args.interval_length,
        max_instructions=args.profile_instructions,
        pkru=workload.initial_pkru,
    )
    selection = select_simpoints(profile, top_n=args.top_n)
    policies = (
        list(WrpkruPolicy)
        if args.policy == "all"
        else [WrpkruPolicy(args.policy)]
    )
    ipcs = {
        policy: weighted_ipc(
            workload.program,
            selection,
            CoreConfig(wrpkru_policy=policy),
            initial_pkru=workload.initial_pkru,
            fastforward=not args.no_fastforward,
            parallel=args.parallel,
        )
        for policy in policies
    }
    if args.json:
        print(json.dumps({
            "workload": args.label,
            "interval_length": selection.interval_length,
            "points": [
                {"interval": p.interval_index, "weight": p.weight,
                 "cluster": p.cluster}
                for p in selection.points
            ],
            "fastforward": not args.no_fastforward,
            "weighted_ipc": {
                policy.value: ipc for policy, ipc in ipcs.items()
            },
        }, indent=2))
        return 0
    print(f"=== {args.label}: {len(selection.points)} simpoints over "
          f"{selection.num_intervals} intervals of "
          f"{selection.interval_length} instructions ===")
    for point in selection.points:
        print(f"  interval {point.interval_index:4d}  "
              f"weight {point.weight:.3f}  cluster {point.cluster}")
    mode = "full-prefix" if args.no_fastforward else "checkpointed"
    print(f"\nweighted IPC ({mode}):")
    for policy, ipc in ipcs.items():
        print(f"  {policy.value:15s}: {ipc:.4f}")
    return 0


def _cmd_submit(args) -> int:
    import json

    from repro.core import WrpkruPolicy
    from repro.harness import RequestError, RunRequest
    from repro.service import SweepService, default_spool_dir
    from repro.workloads import ALL_PROFILES
    from repro.workloads.instrument import InstrumentMode

    labels = list(args.labels)
    if args.all_labels:
        labels = [profile.label for profile in ALL_PROFILES]
    if not labels:
        print("error: no workloads given (pass labels or --all-labels)",
              file=sys.stderr)
        return 2
    policies = (
        list(WrpkruPolicy)
        if args.policy == "all"
        else [WrpkruPolicy(args.policy)]
    )
    try:
        requests = [
            RunRequest(
                workload=label,
                policy=policy,
                mode=InstrumentMode(args.mode),
                instructions=args.instructions,
                warmup=args.warmup,
                fastforward=args.fastforward,
                time_shards=args.time_shards,
                shard_warmup=args.shard_warmup,
            )
            for label in labels
            for policy in policies
        ]
    except RequestError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    spool = args.spool or default_spool_dir()
    service = SweepService(spool)
    handle = service.submit(requests, batch_id=args.batch_id)
    summary = {
        "batch": handle.batch_id,
        "spool": str(spool),
        "submitted": len(handle.job_ids),
        "deduped": handle.deduped,
        **service.spool.counts(),
    }
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(f"batch {handle.batch_id}: {summary['submitted']} job(s) "
              f"({summary['deduped']} already spooled) in {spool}")
        print(f"  spool now: {summary['pending']} pending, "
              f"{summary['running']} running, {summary['done']} done, "
              f"{summary['failed']} failed")
        print(f"  drain with: python -m repro serve --spool {spool}")
    if args.watch:
        return _watch_batch(
            service.spool, handle.job_ids, args.poll_interval
        )
    return 0


def _watch_batch(spool, job_ids, poll_interval: float) -> int:
    """Poll the spool until every job settles; render live progress.

    A sharded job sits in ``running/`` for its whole detailed window,
    so besides per-job completion the status line surfaces the
    ``shards_done/shards_total`` counters the scheduler stamps onto the
    running job document (:meth:`SpoolDir.note_shards`) — intra-run
    progress for runs that take minutes.  Ctrl-C stops watching only;
    the batch stays spooled.
    """
    import time

    from repro.obs.progress import ProgressReporter
    from repro.service import JobState

    pending = list(dict.fromkeys(job_ids))  # de-duplicated, ordered
    reporter = ProgressReporter(len(pending), label="batch").start()
    failed = 0
    try:
        while pending:
            note = None
            for job_id in list(pending):
                state = spool.state_of(job_id)
                if state in (JobState.DONE, JobState.FAILED):
                    pending.remove(job_id)
                    if state is JobState.FAILED:
                        failed += 1
                    reporter.advance(
                        job_id[:12]
                        + (" FAILED" if state is JobState.FAILED else "")
                    )
                elif state is JobState.RUNNING and note is None:
                    doc = spool.job_doc(job_id) or {}
                    total = doc.get("shards_total")
                    note = (
                        f"{job_id[:12]} shard "
                        f"{doc.get('shards_done', 0)}/{total}"
                        if total
                        else job_id[:12]
                    )
            if not pending:
                break
            if note is not None:
                reporter.heartbeat(note)
            time.sleep(poll_interval)
    except KeyboardInterrupt:
        reporter.heartbeat("interrupted; batch left spooled")
    finally:
        reporter.finish()
    return 1 if failed else 0


def _cmd_serve(args) -> int:
    import json

    from repro.obs import jsonl_line
    from repro.service import SweepService, default_spool_dir

    spool = args.spool or default_spool_dir()
    service = SweepService(spool, max_retries=args.max_retries)
    settled = {}

    def record(job_id, result, error):
        settled[job_id] = (result, error)

    service.serve(
        once=not args.watch,
        poll_interval=args.poll_interval,
        parallel=args.parallel,
        max_workers=args.max_workers,
        on_result=record,
        max_iterations=args.max_iterations,
    )
    if args.metrics_out is not None:
        args.metrics_out.parent.mkdir(parents=True, exist_ok=True)
        with open(args.metrics_out, "a") as handle:
            for job_id in sorted(settled):
                result, _error = settled[job_id]
                if result is not None and result.metrics is not None:
                    handle.write(jsonl_line(result.metrics) + "\n")
    summary = {
        "spool": str(spool),
        "settled": len(settled),
        **service.counters,
        **service.spool.counts(),
    }
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(f"served {summary['settled']} job(s) from {spool}: "
              f"{summary['executed']} executed, "
              f"{summary['from_cache']} from cache, "
              f"{summary['from_spool']} from spool, "
              f"{summary['retried']} retried, {summary['failed']} failed")
    return 1 if summary["failed"] else 0


def _cmd_status(args) -> int:
    import json

    from repro.obs import jsonl_line
    from repro.obs.snapshot import MetricsSnapshot
    from repro.service import JobState, SpoolDir, default_spool_dir

    spool = SpoolDir(args.spool or default_spool_dir())
    if args.batch is None:
        summary = {
            "spool": str(spool.root),
            "batches": spool.batch_ids(),
            **spool.counts(),
        }
        if args.json:
            print(json.dumps(summary, indent=2))
        else:
            print(f"spool {spool.root}: {summary['pending']} pending, "
                  f"{summary['running']} running, {summary['done']} done, "
                  f"{summary['failed']} failed")
            for batch_id in summary["batches"]:
                print(f"  batch {batch_id}: "
                      f"{len(spool.batch_jobs(batch_id))} job(s)")
        return 0
    try:
        job_ids = spool.batch_jobs(args.batch)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    counts = {state.value: 0 for state in JobState}
    unknown = 0
    jobs = []
    for job_id in job_ids:
        state = spool.state_of(job_id)
        if state is None:
            unknown += 1
        else:
            counts[state.value] += 1
        doc = spool.job_doc(job_id) or {}
        jobs.append({
            "job": job_id,
            "state": state.value if state is not None else None,
            "shards_done": doc.get("shards_done"),
            "shards_total": doc.get("shards_total"),
        })
    if args.metrics_out is not None:
        args.metrics_out.parent.mkdir(parents=True, exist_ok=True)
        written = 0
        with open(args.metrics_out, "w") as handle:
            for job_id in sorted(set(job_ids)):
                payload = spool.result_payload(job_id)
                if payload and payload.get("metrics"):
                    snapshot = MetricsSnapshot.from_dict(payload["metrics"])
                    handle.write(jsonl_line(snapshot) + "\n")
                    written += 1
        print(f"{written} metrics line(s) written to {args.metrics_out}",
              file=sys.stderr)
    summary = {
        "batch": args.batch,
        "spool": str(spool.root),
        "total": len(job_ids),
        "unknown": unknown,
        **counts,
        "jobs": jobs,
    }
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(f"batch {args.batch}: {summary['total']} job(s) — "
              f"{summary['pending']} pending, {summary['running']} running, "
              f"{summary['done']} done, {summary['failed']} failed")
        # Per-job table; sharded jobs surface the intra-run progress
        # the scheduler stamps onto the running job doc, so a long
        # detailed run is visible from `repro status` — not only from
        # `submit --watch`.
        for job in jobs:
            shards = (
                f"  shard {job['shards_done']}/{job['shards_total']}"
                if job["shards_total"] else ""
            )
            print(f"  {job['job'][:16]}  "
                  f"{job['state'] or 'unknown':8s}{shards}")
    return 0


def _cmd_bench(args) -> int:
    if args.bench_command == "fullrun":
        return _cmd_bench_fullrun(args)
    import json

    from repro.perf.envflag import env_float
    from repro.perf.kernelbench import (
        DEFAULT_INSTRUCTIONS,
        DEFAULT_REPEATS,
        DEFAULT_WARMUP,
        check_against_reference,
        profile_kernel_bench,
        run_kernel_bench,
    )

    reference = None
    methodology = {}
    if args.baseline is not None:
        reference = json.loads(args.baseline.read_text())
        methodology = reference.get("methodology", {})
    report = run_kernel_bench(
        labels=args.labels or None,
        instructions=args.instructions
        or methodology.get("instructions", DEFAULT_INSTRUCTIONS),
        warmup=args.warmup or methodology.get("warmup", DEFAULT_WARMUP),
        repeats=args.repeats or methodology.get("repeats", DEFAULT_REPEATS),
        compare=args.compare,
    )
    if args.profile:
        report["profile"] = profile_kernel_bench(
            labels=args.labels or None,
            instructions=args.instructions
            or methodology.get("instructions", DEFAULT_INSTRUCTIONS),
            warmup=args.warmup or methodology.get("warmup", DEFAULT_WARMUP),
        )
    failures = []
    if reference is not None:
        scale = env_float("REPRO_KIPS_SCALE", 1.0)
        report["host_scale"] = scale
        failures = check_against_reference(report, reference, scale=scale)
        report["regressions"] = failures
    if args.out is not None:
        from repro.report import atomic_write_text

        atomic_write_text(args.out, json.dumps(report, indent=2) + "\n")
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        m = report["methodology"]
        print(f"=== cycle-kernel throughput "
              f"({m['instructions']} + {m['warmup']} warmup instructions, "
              f"best of {m['repeats']}) ===")
        for label, kips in report["staged"].items():
            line = f"  {label:26s} {kips:8.1f} KIPS"
            if args.compare:
                line += (f"  (single-step {report['single_step'][label]:.1f},"
                         f" speedup {report['speedup'][label]:.2f}x)")
            print(line)
        print(f"  {'geomean':26s} {report['geomean']:8.1f} KIPS")
        if args.compare:
            print(f"  staged-engine geomean speedup: "
                  f"{report['geomean_speedup']:.2f}x")
        if args.profile:
            print("  --- stage breakdown (cProfile self time) ---")
            for stage, entry in report["profile"]["stages"].items():
                print(f"  {stage:26s} {entry['seconds']:8.3f} s "
                      f"({entry['percent']:.1f}%)")
        for failure in failures:
            print(f"  REGRESSION: {failure}")
        if args.out is not None:
            print(f"report written to {args.out}")
    return 1 if failures else 0


def _cmd_bench_fullrun(args) -> int:
    import json

    from repro.perf.envflag import env_float
    from repro.perf.fullrunbench import (
        DEFAULT_INSTRUCTIONS,
        DEFAULT_REPEATS,
        DEFAULT_SHARDS,
        DEFAULT_WARMUP,
        check_against_reference,
        run_fullrun_bench,
    )

    reference = None
    methodology = {}
    if args.baseline is not None:
        reference = json.loads(args.baseline.read_text())
        methodology = reference.get("methodology", {})
    report = run_fullrun_bench(
        labels=args.labels
        or ([methodology["label"]] if "label" in methodology else None),
        instructions=args.instructions
        or methodology.get("instructions", DEFAULT_INSTRUCTIONS),
        warmup=args.warmup or methodology.get("warmup", DEFAULT_WARMUP),
        shards=args.shards or methodology.get("shards", DEFAULT_SHARDS),
        shard_warmup=(
            args.shard_warmup
            if args.shard_warmup is not None
            else methodology.get("shard_warmup")
        ),
        repeats=args.repeats or methodology.get("repeats", DEFAULT_REPEATS),
    )
    failures = []
    if reference is not None:
        scale = env_float("REPRO_FULLRUN_SCALE", 1.0)
        report["host_scale"] = scale
        failures = check_against_reference(report, reference, scale=scale)
        report["regressions"] = failures
    if args.out is not None:
        from repro.report import atomic_write_text

        atomic_write_text(args.out, json.dumps(report, indent=2) + "\n")
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        m = report["methodology"]
        host = report["host"]
        print(f"=== time-sharded full run ({m['instructions']} + "
              f"{m['warmup']} warmup instructions, {m['shards']} shards, "
              f"best of {m['repeats']}; {host['effective_workers']} "
              f"effective worker(s) on {host['cpu_count']} core(s)) ===")
        for label, entry in report["labels"].items():
            print(f"  {label:26s} mono {entry['mono_seconds']:7.3f}s  "
                  f"sharded {entry['sharded_seconds']:7.3f}s  "
                  f"speedup {entry['speedup']:5.2f}x  "
                  f"ipc err {entry['ipc_error_percent']:.4f}%  "
                  f"retired "
                  f"{'exact' if entry['retired_exact'] else 'INEXACT'}")
        print(f"  {'geomean speedup':26s} {report['geomean_speedup']:5.2f}x")
        for failure in failures:
            print(f"  REGRESSION: {failure}")
        if args.out is not None:
            print(f"report written to {args.out}")
    return 1 if failures else 0


def _cmd_reproduce(args) -> int:
    from repro.harness import (
        fig3_serialization_study,
        fig4_overhead_breakdown,
        fig9_normalized_ipc,
        fig10_wrpkru_frequency,
        fig11_rob_pkru_sensitivity,
        fig13_flush_reload,
        motivation_mprotect_vs_mpk,
        render_bars,
        render_latency_series,
        render_table,
        section8_hardware_overhead,
        table1_isolation_properties,
        table2_source_operands,
        table3_configuration,
    )

    from repro.report import atomic_write_text

    out: pathlib.Path = args.out
    out.mkdir(parents=True, exist_ok=True)
    wanted = (
        None if args.experiments == "all"
        else set(args.experiments.split(","))
    )

    def selected(name: str) -> bool:
        return wanted is None or name in wanted

    def save(name: str, text: str) -> None:
        atomic_write_text(out / f"{name}.txt", text + "\n")
        print(f"[{name}] written to {out / (name + '.txt')}")

    if selected("table1"):
        data = table1_isolation_properties()
        save("table1", render_table(data["rows"], title="Table I"))
    if selected("table2"):
        save("table2", render_table(table2_source_operands(),
                                    title="Table II"))
    if selected("table3"):
        save("table3", render_table(table3_configuration(),
                                    title="Table III"))
    if selected("hw"):
        data = section8_hardware_overhead()
        save("hw_overhead",
             f"total: {data['total_bytes']:.1f} B "
             f"({data['l1d_fraction']:.2%} of L1D)")
    if selected("fig13"):
        data = fig13_flush_reload()
        save("fig13", render_latency_series(
            data["nonsecure_latencies"], title="NonSecure:")
            + "\n" + render_latency_series(
                data["specmpk_latencies"], title="SpecMPK:"))
    shards = args.shards
    if selected("fig3"):
        rows = fig3_serialization_study(time_shards=shards)
        save("fig3", render_table(rows, title="Fig. 3"))
    if selected("fig4"):
        rows = fig4_overhead_breakdown(time_shards=shards)
        save("fig4", render_table(rows, title="Fig. 4"))
    if selected("fig9"):
        rows = fig9_normalized_ipc(time_shards=shards)
        save("fig9", render_table(rows, title="Fig. 9"))
    if selected("fig10"):
        rows = fig10_wrpkru_frequency(time_shards=shards)
        save("fig10", render_bars(
            [(r["workload"], r["wrpkru_per_kilo"]) for r in rows],
            title="Fig. 10"))
    if selected("fig11"):
        rows = fig11_rob_pkru_sensitivity(time_shards=shards)
        save("fig11", render_table(rows, title="Fig. 11"))
    if selected("mprotect"):
        rows = motivation_mprotect_vs_mpk()
        save("mprotect", render_table(rows, title="mprotect vs MPK"))
    return 0


def _cmd_report(args) -> int:
    import json
    import shutil

    from repro.report import diff_manifests
    from repro.report.pipeline import (
        ReportConfig,
        generate_report,
        load_or_fail,
    )

    only = (
        None if args.only is None
        else {name for name in args.only.split(",") if name}
    )
    baseline_path = args.baseline or (args.out / "baseline.json")
    if args.action == "diff":
        try:
            baseline = load_or_fail(baseline_path)
            current = load_or_fail(args.out / "manifest.json")
        except FileNotFoundError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        if (baseline.instructions != current.instructions
                or baseline.repeats != current.repeats):
            print(
                "error: manifest was generated at different budgets "
                f"(baseline: instructions={baseline.instructions} "
                f"repeats={baseline.repeats}; current: "
                f"instructions={current.instructions} "
                f"repeats={current.repeats}) — values are not "
                "comparable; regenerate with matching --instructions/"
                "--repeats", file=sys.stderr,
            )
            return 2
        report = diff_manifests(baseline, current, only=only)
        if args.json:
            print(json.dumps({
                "baseline": str(baseline_path),
                "manifest": str(args.out / "manifest.json"),
                "checks": len(report.items),
                "failures": [item.describe() for item in report.failures],
                "ok": report.ok,
            }, indent=2))
        else:
            print(report.render())
        return 0 if report.ok else 1
    config = ReportConfig(
        out=args.out,
        repeats=args.repeats,
        instructions=args.instructions,
        seed=args.seed,
        only=only,
    )
    try:
        manifest, counters = generate_report(
            config, echo=None if args.json else print
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.write_baseline:
        baseline_path.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(args.out / "manifest.json", baseline_path)
    if args.json:
        print(json.dumps({
            "out": str(args.out),
            **counters,
            # After the counters spread: the artifact-name list wins
            # over the bare "artifacts" count (which is just its len).
            "artifacts": sorted(manifest.artifacts),
            "baseline_written": bool(args.write_baseline),
        }, indent=2))
    else:
        print(f"ledger written to {args.out} "
              f"({counters['artifacts']} artifact(s), "
              f"{counters['snapshots']} telemetry snapshot(s); "
              f"run cache: {counters['cache_hits']} hit(s), "
              f"{counters['cache_misses']} miss(es))")
        if args.write_baseline:
            print(f"baseline written to {baseline_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
