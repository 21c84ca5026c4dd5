"""Compare two sets of benchmark runs, workload by workload.

Usage::

    python3 bench/compare.py A.jsonl B.jsonl [--record FILE]

``A`` and ``B`` are ``runs.jsonl`` files written by ``bench/run.py``:
``A`` is the reference (the parent commit, or the first of two sets of
the same code) and ``B`` the candidate.  Untraced runs of the same
workload and seed form pairs.  For every workload and end-to-end
metric of ``BENCHMARK.json`` this prints both medians with their
quartiles, the share of pairs ``B`` won and a verdict:

* ``better``: B wins at least nine tenths of the pairs (ties count for
  neither) and the medians differ by more than A's quartile spread;
* ``worse``: B's median is worse than A's by more than the bound;
* ``unresolved``: not worse, but a set's quartile spread is wider than
  the bound, unless every run of B reads better than every run of A;
* ``unchanged``: otherwise.

The exit status is 1 when any verdict is ``worse``.  ``--record``
writes both sets' medians and spreads, the set-to-set difference of
each metric and the measured time-sharding speedup as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from bench import stats  # noqa: E402

#: Share of pairs the candidate must win before a gain counts.
WIN_SHARE = 0.9


def load(path: Path) -> Dict[str, Dict[int, List[dict]]]:
    """Untraced runs by workload, then by seed, in file order."""
    runs: Dict[str, Dict[int, List[dict]]] = {}
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record["trace"]:
            continue
        runs.setdefault(record["workload"], {}).setdefault(
            record["seed"], []
        ).append(record)
    return runs


def paired(a: Dict[int, List[dict]], b: Dict[int, List[dict]],
           metric: str) -> Tuple[List[float], List[float]]:
    """Values of *metric* in A and B, aligned by seed."""
    left, right = [], []
    for seed in sorted(set(a) & set(b)):
        for one, two in zip(a[seed], b[seed]):
            left.append(one["metrics"][metric]["value"])
            right.append(two["metrics"][metric]["value"])
    return left, right


def verdict(base: Sequence[float], change: Sequence[float],
            better: str, bound: float) -> Tuple[float, str]:
    """``(share of pairs won by change, verdict)``; see the module doc."""
    sign = 1.0 if better == "lower" else -1.0
    won = sum(1 for b, c in zip(base, change) if sign * (c - b) < 0)
    share = won / len(base)
    base_q1, base_median, base_q3 = stats.quartiles(base)
    change_median = stats.quartiles(change)[1]
    gain = sign * (base_median - change_median)
    if share >= WIN_SHARE and gain > base_q3 - base_q1:
        return share, "better"
    if -gain / base_median > bound:
        return share, "worse"
    all_better = all(
        sign * (c - b) < 0 for b in base for c in change
    )
    if max(stats.spread(base), stats.spread(change)) > bound \
            and not all_better:
        return share, "unresolved"
    return share, "unchanged"


def compare(a_path: Path, b_path: Path, config: dict) -> Tuple[list, dict]:
    """Rows of the comparison table and the JSON record."""
    a_runs, b_runs = load(a_path), load(b_path)
    rows = []
    record: Dict[str, object] = {"workloads": {}}
    for workload in [w["name"] for w in config["workloads"]]:
        if workload not in a_runs or workload not in b_runs:
            continue
        entry = record["workloads"].setdefault(workload, {})
        for metric in config["end_to_end"]:
            name = metric["name"]
            base, change = paired(a_runs[workload], b_runs[workload], name)
            if not base:
                continue
            share, decision = verdict(
                base, change, metric["better"], metric["bound"]
            )
            a_sum, b_sum = stats.summarize(base), stats.summarize(change)
            rows.append((workload, name, a_sum, b_sum, share, decision))
            entry[name] = {
                "unit": metric["unit"], "bound": metric["bound"],
                "a": {**a_sum, "spread": stats.spread(base)},
                "b": {**b_sum, "spread": stats.spread(change)},
                "set_to_set": abs(b_sum["median"] - a_sum["median"])
                / a_sum["median"],
                "verdict": decision,
            }
    workloads = record["workloads"]
    if "long-run" in workloads and "sharded-run" in workloads:
        record["time_shard_speedup_k2"] = {
            side: workloads["long-run"]["wall_s"][side]["median"]
            / workloads["sharded-run"]["wall_s"][side]["median"]
            for side in ("a", "b")
        }
    first = next(iter(next(iter(a_runs.values())).values()))[0]
    record.update({
        key: first[key]
        for key in ("host", "code_fingerprint", "nproc", "seconds")
    })
    record["seeds"] = sorted({
        seed for runs in a_runs.values() for seed in runs
    })
    return rows, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 bench/compare.py")
    parser.add_argument("a", type=Path, help="reference runs.jsonl")
    parser.add_argument("b", type=Path, help="candidate runs.jsonl")
    parser.add_argument("--record", type=Path,
                        help="also write the comparison as JSON here")
    args = parser.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows, record = compare(args.a, args.b, config)
    print(f"{'workload':<13} {'metric':<12} {'A median [q1, q3]':<30} "
          f"{'B median [q1, q3]':<30} {'B won':>6}  verdict")
    for workload, name, a_sum, b_sum, share, decision in rows:
        cells = [
            f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] n={s['n']}"
            for s in (a_sum, b_sum)
        ]
        print(f"{workload:<13} {name:<12} {cells[0]:<30} {cells[1]:<30} "
              f"{share:>6.0%}  {decision}")
    speedup = record.get("time_shard_speedup_k2")
    if speedup:
        print(f"K=2 time-sharding speedup (long-run / sharded-run wall_s): "
              f"A {speedup['a']:.3f}x, B {speedup['b']:.3f}x")
    if args.record is not None:
        args.record.write_text(json.dumps(record, indent=2) + "\n")
    return 1 if any(row[5] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
