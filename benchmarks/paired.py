#!/usr/bin/env python3
"""Paired runs of one repo-benchmark workload on two source trees.

    python3 benchmarks/paired.py PARENT_TREE CHANGE_TREE --workload kv-sbft-pipelined-rw \\
        --seed 0 --pairs 10 [--smoke] [--output pairs.json]

    python3 benchmarks/paired.py PARENT_TREE CHANGE_TREE --workload kv-sbft-fast --jitter 12

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

``--jitter N`` asks instead whether a change of simulated numbers holds off
the one cost model: it runs one rep of each tree at the exact
``CryptoCosts`` and at N seeded draws that scale every cost by its own
factor in [0.99, 1.01] (draw ``k`` seeds ``random.Random(k)``; both trees get
the same factors), and prints per draw the change / parent ratio of the three
``sim_*`` metrics and, per metric, the draws the change wins.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import random
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "perf"))
import catalogue  # noqa: E402

REP_TIMEOUT_S = 150.0

#: ``python -c`` program of a jittered rep: scales the fields of the one
#: ``DEFAULT_COSTS`` object every cluster is built with by the factors in
#: ``argv[1]``, in place and before anything else is imported, then runs the
#: worker script ``argv[2]`` with the remaining arguments.
JITTER_BOOT = """
import json, os, runpy, sys
from repro.crypto import costs
factors, worker = json.loads(sys.argv[1]), sys.argv[2]
for name, factor in factors.items():
    object.__setattr__(costs.DEFAULT_COSTS, name, getattr(costs.DEFAULT_COSTS, name) * factor)
sys.argv = [worker] + sys.argv[3:]
sys.path.insert(0, os.path.dirname(worker))
runpy.run_path(worker, run_name="__main__")
"""

#: The ``sim_*`` metrics a jitter draw compares, each with its better side.
SIM_METRICS = {metric.name: metric.better for metric in catalogue.END_TO_END
               if metric.source != "host"}


def jitter_factors(draw: int, fields: Sequence[str]) -> Dict[str, float]:
    """Draw ``draw``'s factor per cost field, each in [0.99, 1.01]; draw 0
    is the exact model (no factor)."""
    if draw == 0:
        return {}
    rng = random.Random(draw)
    return {name: 1.0 + rng.uniform(-0.01, 0.01) for name in fields}


def spawn(tree: str, workload: str, seed: int, smoke: bool,
          factors: Optional[Dict[str, float]] = None) -> Dict[str, Any]:
    """One untraced rep of ``workload`` from ``tree`` (its costs scaled by
    ``factors``); ``{"error": ...}`` if it crashed, timed out or failed its
    correctness gate."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONHASHSEED="0")
    worker = os.path.join(tree, "benchmarks", "perf", "worker.py")
    command = [sys.executable, worker]
    if factors:
        command = [sys.executable, "-c", JITTER_BOOT, json.dumps(factors), worker]
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


def jitter_wins(ratios: List[Dict[str, float]]) -> Dict[str, int]:
    """Per ``sim_*`` metric: the draws whose change / parent ratio is on the
    metric's better side of 1."""
    return {name: sum((row[name] > 1.0) if better == "higher" else (row[name] < 1.0)
                      for row in ratios)
            for name, better in SIM_METRICS.items()}


def run_jitter(trees: Dict[str, str], args: argparse.Namespace) -> int:
    """The ``--jitter`` mode (see the module docstring)."""
    sys.path.insert(0, os.path.join(trees["parent"], "src"))
    from repro.crypto.costs import CryptoCosts

    fields = [field.name for field in dataclasses.fields(CryptoCosts)]
    ratios = []
    for draw in range(args.jitter + 1):
        factors = jitter_factors(draw, fields)
        reps = {side: spawn(trees[side], args.workload, args.seed, args.smoke, factors)
                for side in ("parent", "change")}
        errors = [f"draw {draw} {side}: {rep['error']}" for side, rep in reps.items()
                  if "error" in rep]
        if errors:
            print("\n".join(errors))
            return 1
        row = {name: reps["change"]["sim"][name] / reps["parent"]["sim"][name]
               for name in SIM_METRICS}
        print(f"draw {draw:>2} ({'exact' if draw == 0 else 'jitter'}): " + ", ".join(
            f"{name} {ratio:.4f}" for name, ratio in row.items()), flush=True)
        if draw:
            ratios.append(row)
    if ratios:
        print(f"\n{args.workload}, seed {args.seed}: the change wins, of {len(ratios)} draws: "
              + ", ".join(f"{name} {won}" for name, won in jitter_wins(ratios).items()))
    return 0


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
    parser.add_argument("--jitter", type=int, metavar="N",
                        help="compare sim_* metrics at the exact costs and N jittered draws")
    args = parser.parse_args(argv)

    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    if args.jitter is not None:
        return run_jitter(trees, args)
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
