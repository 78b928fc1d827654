#!/usr/bin/env python3
"""Paired runs of one repo-benchmark workload on two source trees.

    python3 benchmarks/paired.py PARENT_TREE CHANGE_TREE --workload kv-sbft-pipelined-rw \\
        --seed 0 --pairs 10 [--smoke] [--output pairs.json]

A tree is a checkout of this repo (``git worktree add ../parent HEAD~1``, or
a ``git archive`` export).  Each pair runs one ``benchmarks/perf/worker.py``
rep from each tree — that tree's worker on that tree's ``src`` — one at a
time, alternating which side goes first.  Printed per side: q1 / median / q3
of every end-to-end metric over the pairs.  Printed per host metric: the
pairs the change won, the median change / parent ratio, and the median gap
against the parent's interquartile range — a gain counts only when the change
wins nearly every pair and the gap exceeds the parent's IQR (ROADMAP aim 1,
docs/benchmarks.md) — and one verdict by that rule (:func:`verdict`).  Exit
status 1 if a rep fails or any ``sim_*`` value or work counter differs
between the two sides, in any pair.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "perf"))
import catalogue  # noqa: E402

REP_TIMEOUT_S = 150.0


def spawn(tree: str, workload: str, seed: int, smoke: bool) -> Dict[str, Any]:
    """One untraced rep of ``workload`` from ``tree``; ``{"error": ...}`` if
    it crashed, timed out or failed its correctness gate."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONHASHSEED="0")
    command = [sys.executable, os.path.join(tree, "benchmarks", "perf", "worker.py")]
    command += ["--workload", workload, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    command += ["--spawned-at", repr(perf_counter())]
    try:
        done = subprocess.run(command, env=env, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"rep exceeded {REP_TIMEOUT_S:.0f} s"}
    try:
        record = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": f"worker exit {done.returncode}, no record\n{done.stderr[-2000:]}"}
    if record.get("failures"):
        record["error"] = "; ".join(record["failures"])
    return record


def quartiles(values: Sequence[float]) -> List[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def verdict(metric: catalogue.Metric, parent: Sequence[float], change: Sequence[float],
            row: Dict[str, Any]) -> str:
    """The repo's rule for one host metric, with ``metric.bound`` as a share
    of the parent's median:

    * ``gain`` — the change won at least 9/10 of the pairs and its median gap
      is larger than the parent's IQR;
    * ``unresolved`` — the parent's IQR is wider than the bound and not every
      change rep beats every parent rep, so the spread hides the answer;
    * ``no worse`` — the change's median is within the bound;
    * ``worse`` — otherwise.
    """
    sign = 1 if metric.better == "lower" else -1
    if row["won"] * 10 >= 9 * len(parent) and row["gap"] > row["parent_iqr"]:
        return "gain"
    allowed = metric.bound * abs(row["parent"][1])
    if row["parent_iqr"] > allowed and not all(
            sign * (b - a) < 0 for a in parent for b in change):
        return "unresolved"
    return "no worse" if -row["gap"] <= allowed else "worse"


def summarise(pairs: List[Dict[str, Dict[str, Any]]]) -> Dict[str, Dict[str, Any]]:
    """Per end-to-end metric: both sides' quartiles and, for host metrics,
    pairs won, median ratio and median gap against the parent's IQR."""
    summary = {}
    for metric in catalogue.END_TO_END:
        part = "host" if metric.source == "host" else "sim"
        parent = [pair["parent"][part][metric.name] for pair in pairs]
        change = [pair["change"][part][metric.name] for pair in pairs]
        row: Dict[str, Any] = {"parent": quartiles(parent), "change": quartiles(change)}
        if part == "host":
            sign = 1 if metric.better == "lower" else -1
            row["won"] = sum(sign * (b - a) < 0 for a, b in zip(parent, change))
            row["ratio"] = statistics.median(b / a for a, b in zip(parent, change) if a)
            row["gap"] = sign * (row["parent"][1] - row["change"][1])
            row["parent_iqr"] = row["parent"][2] - row["parent"][0]
            row["verdict"] = verdict(metric, parent, change, row)
        summary[metric.name] = row
    return summary


def differences(pairs: List[Dict[str, Dict[str, Any]]]) -> List[str]:
    """Every ``sim_*`` value or counter that differs from the first parent rep."""
    reference, found = pairs[0]["parent"], []
    for index, pair in enumerate(pairs):
        for side in ("parent", "change"):
            for part in ("sim", "counters"):
                for key, value in pair[side][part].items():
                    if value != reference[part].get(key):
                        found.append(f"pair {index} {side}: {key} = {value!r}, "
                                     f"parent rep 0 had {reference[part].get(key)!r}")
    return found


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="source tree of the baseline")
    parser.add_argument("change", help="source tree of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny request counts: exercises the tool, measures nothing")
    parser.add_argument("--output", help="write every pair's records here (JSON)")
    args = parser.parse_args(argv)

    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    pairs = []
    for index in range(args.pairs):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        pair = {side: spawn(trees[side], args.workload, args.seed, args.smoke) for side in order}
        errors = [f"pair {index} {side}: {pair[side]['error']}" for side in order
                  if "error" in pair[side]]
        if errors:
            print("\n".join(errors))
            return 1
        pairs.append(pair)
        print(f"pair {index}: run_wall_s parent {pair['parent']['host']['run_wall_s']:.3f} s, "
              f"change {pair['change']['host']['run_wall_s']:.3f} s "
              f"({order[0]} first)", flush=True)

    summary = summarise(pairs)
    print(f"\n{args.workload}, seed {args.seed}, {len(pairs)} pairs "
          f"(q1 / median / q3 per side)")
    for name, row in summary.items():
        line = f"  {name:<20}" + "".join(
            f"  {side} {' / '.join(f'{value:.4g}' for value in row[side])}"
            for side in ("parent", "change"))
        if "won" in row:
            line += (f"  ratio {row['ratio']:.3f}, won {row['won']}/{len(pairs)}, "
                     f"gap {row['gap']:.4g} vs parent IQR {row['parent_iqr']:.4g}")
        print(line)
    for name, row in summary.items():
        if "verdict" in row:
            print(f"verdict {name}: {row['verdict']}")
    found = differences(pairs)
    print("\n".join(found) if found else "every sim_* value and counter equal in every pair")
    if args.output:
        with open(args.output, "w") as handle:
            json.dump({"workload": args.workload, "seed": args.seed, "smoke": args.smoke,
                       "trees": trees, "summary": summary, "pairs": pairs}, handle, indent=1)
            handle.write("\n")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
