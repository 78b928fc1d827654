#!/usr/bin/env python3
"""The repo benchmark: five fixed-seed workloads, host + simulated end-to-end
metrics and a per-layer profile ledger.  See README.md in this directory.

    python3 benchmarks/perf/run.py                       # all workloads
    python3 benchmarks/perf/run.py --output A.json       # ... and keep the result
    python3 benchmarks/perf/run.py --compare A.json B.json
    python3 benchmarks/perf/run.py --workload kv-sbft-fast --seed 3 --seconds 12 --trace 0

Each rep is a fresh ``worker.py`` process, one at a time, round-robin over
the selected workloads.  With a single ``--workload`` the last line of output
is the one-object JSON summary ``BENCHMARK.json``'s driver reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
# Host time is the measurand here, so the repo linter's clock ban is waived.
from time import perf_counter  # repro: allow[no-wall-clock]
from typing import Any, Dict, List, Optional, Sequence

BENCHMARK_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(BENCHMARK_DIR))
SRC_DIR = os.path.join(REPO_ROOT, "src")
sys.path.insert(0, BENCHMARK_DIR)

import catalogue  # noqa: E402
import compare  # noqa: E402

DEFAULT_SECONDS = 12.0
MIN_REPS = 2
MAX_REPS = 25
#: Per-workload cap on wall time spent launching reps (the driver allows one
#: invocation 180 s), and the timeout of a single rep.
WORKLOAD_WALL_CAP_S = 100.0
REP_TIMEOUT_S = 150.0


def spawn_rep(workload: str, seed: int, smoke: bool, trace: bool) -> Dict[str, Any]:
    """Run one rep in a fresh process and return its record.

    A rep that crashes, times out or prints no record comes back as
    ``{"error": ...}``.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # Same hash seed for every rep: set/dict layout is one less source of
    # host-time spread (work counters do not depend on it).
    env["PYTHONHASHSEED"] = "0"
    command = [sys.executable, os.path.join(BENCHMARK_DIR, "worker.py")]
    command += ["--workload", workload, "--seed", str(seed)]
    command += ["--smoke"] if smoke else []
    command += ["--trace"] if trace else []
    command += ["--spawned-at", repr(perf_counter())]
    try:
        done = subprocess.run(
            command, env=env, capture_output=True, text=True, timeout=REP_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"error": f"rep exceeded {REP_TIMEOUT_S:.0f} s and was killed"}
    lines = done.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"error": f"worker exit {done.returncode}, no record\n{done.stderr[-2000:]}"}
    return record


def measure(
    names: Sequence[str], seed: int, seconds: float, smoke: bool, trace: bool
) -> Dict[str, List[Dict[str, Any]]]:
    """Rep records per workload: untraced reps until each workload has
    measured ``seconds`` of ``run_wall_s`` (at least :data:`MIN_REPS`), then
    one traced rep each.  Interleaved round-robin so machine drift hits all
    workloads alike; a workload stops at its first failing rep."""
    reps: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    measured = {name: 0.0 for name in names}
    walled = {name: 0.0 for name in names}

    def wants_more(name: str) -> bool:
        done = reps[name]
        if done and "error" in done[-1]:
            return False
        if len(done) < MIN_REPS:
            return True
        return (
            measured[name] < seconds
            and len(done) < MAX_REPS
            and walled[name] < WORKLOAD_WALL_CAP_S
        )

    while any(wants_more(name) for name in names):
        for name in names:
            if wants_more(name):
                started = perf_counter()
                record = spawn_rep(name, seed, smoke, trace=False)
                walled[name] += perf_counter() - started
                measured[name] += record.get("host", {}).get("run_wall_s", 0.0)
                reps[name].append(record)
    if trace:
        for name in names:
            if "error" not in reps[name][-1]:
                reps[name].append(spawn_rep(name, seed, smoke, trace=True))
    return reps


def spread_summary(values: List[float], estimator: str = "median") -> Dict[str, float]:
    """The metric's value (median or min over reps) with median, min,
    quartiles and rep count recorded beside it.

    ``spread`` is how far the reps put that value in doubt, as a share of
    it: the quartile distance for a median; for a minimum, the distance up to
    the lower quartile (how well the floor was sampled — the upper reps say
    how disturbed the host was, not where the floor is).
    """
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    fastest = min(values)
    value, doubt = (fastest, q1 - fastest) if estimator == "min" else (median, q3 - q1)
    return {
        "value": value,
        "spread": doubt / abs(value) if value else 0.0,
        "median": median,
        "min": fastest,
        "q1": q1,
        "q3": q3,
        "reps": len(values),
    }


def summarise(reps: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold one workload's rep records into its result entry, applying the
    cross-rep half of the correctness gate (``sim_*`` and counters identical
    in every rep, traced one included)."""
    good = [rep for rep in reps if "error" not in rep]
    failures = [f"rep {i}: {rep['error']}" for i, rep in enumerate(reps) if "error" in rep]
    for index, rep in enumerate(good):
        failures += [f"rep {index}: {failure}" for failure in rep["failures"]]
        for part in ("sim", "counters"):
            for key, value in rep[part].items():
                if value != good[0][part][key]:
                    failures.append(
                        f"rep {index}: {key} = {value!r}, rep 0 had {good[0][part][key]!r}"
                    )
    per_rep_ops = good[0]["attempted"] if good else 1
    attempted = per_rep_ops * len(reps)
    # A failing rep fails all its operations; a cross-rep mismatch means no
    # rep can be trusted, so it fails them all.
    failed = attempted if failures else 0
    entry: Dict[str, Any] = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "end_to_end": {},
        "per_layer": {},
        "counters": good[0]["counters"] if good else {},
        "unresolved": [],
    }
    untraced = [rep for rep in good if not rep["traced"]]
    traced = [rep for rep in good if rep["traced"]]
    if not untraced:
        return entry

    def host(metric: catalogue.Metric) -> Dict[str, float]:
        return spread_summary([rep["host"][metric.name] for rep in untraced], metric.estimator)

    def describe(metric: catalogue.Metric, summary: Dict[str, Any]) -> Dict[str, Any]:
        return {**summary, "unit": metric.unit, "better": metric.better}

    for metric in catalogue.END_TO_END + catalogue.ZERO_BASED:
        if metric.source == "host":
            summary = host(metric)
        elif metric.source == "sim":
            summary = spread_summary([rep["sim"][metric.name] for rep in good])
        else:  # failed_ops_share
            summary = {"value": failed / attempted, "spread": 0.0, "reps": len(reps)}
        entry["end_to_end"][metric.name] = {**describe(metric, summary), "bound": metric.bound}

    trace = traced[0]["trace"] if traced else None
    for metric in catalogue.PER_LAYER:
        if metric.source == "host":
            summary: Optional[Dict[str, Any]] = host(metric)
        elif metric.source in ("sim", "counters"):
            summary = {"value": good[0][metric.source][metric.name]}
        elif trace is None:
            summary = None
        elif metric.name == "trace.overhead_ratio":
            summary = {
                "value": traced[0]["host"]["run_wall_s"]
                / entry["end_to_end"]["run_wall_s"]["value"]
            }
        else:
            summary = {"value": trace[metric.name]}
        if summary is not None:
            entry["per_layer"][metric.name] = describe(metric, summary)
    if trace is not None:
        entry["unresolved"] = trace["trace.unresolved"]
    return entry


def _format(value: Any) -> str:
    if value is None:
        return "null"
    if isinstance(value, int):
        return str(value)
    return f"{value:.4g}" if abs(value) < 1000 else f"{value:.1f}"


def print_workload(name: str, entry: Dict[str, Any]) -> None:
    print(f"\n== {name}: {'correct' if entry['correct'] else 'FAILED'}, "
          f"{entry['failed']} of {entry['attempted']} operations failed\n"
          f"   closed loop, {entry['load']}")
    for failure in entry["failures"]:
        print(f"   ! {failure.strip().splitlines()[-1]}")
    if entry["end_to_end"]:
        print(f"   {'end-to-end metric':<24}{'value':>12} {'unit':<10}{'better':<8}"
              f"{'bound':>6}{'median':>11}{'min':>11}{'q1':>11}{'q3':>11}{'reps':>5}")
    for metric, row in entry["end_to_end"].items():
        print(f"   {metric:<24}{_format(row['value']):>12} {row['unit']:<10}{row['better']:<8}"
              f"{row['bound']:>6.0%}{_format(row.get('median')):>11}{_format(row.get('min')):>11}"
              f"{_format(row.get('q1')):>11}{_format(row.get('q3')):>11}{row['reps']:>5}")
    if entry["per_layer"]:
        print(f"   {'per-layer metric':<32}{'value':>14} {'unit':<10}{'better':<8}")
    for metric, row in entry["per_layer"].items():
        print(f"   {metric:<32}{_format(row['value']):>14} {row['unit']:<10}{row['better']:<8}")
    if entry["unresolved"]:
        print(f"   trace.unresolved: {', '.join(entry['unresolved'])}")


def contract_line(entry: Dict[str, Any], trace: bool) -> str:
    """The driver's one-object summary: end-to-end metrics with ``--trace 0``,
    per-layer metrics with ``--trace 1``."""
    if trace:
        rows = entry["per_layer"]
    else:
        rows = {m.name: entry["end_to_end"][m.name] for m in catalogue.END_TO_END}
    return json.dumps(
        {
            "correct": entry["correct"],
            "attempted": entry["attempted"],
            "failed": entry["failed"],
            "metrics": {
                name: {"value": row["value"], "unit": row["unit"]} for name, row in rows.items()
            },
        }
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all five)")
    parser.add_argument("--seed", type=int, default=0, help="workload-input seed")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="run_wall_s to accumulate per workload before stopping its reps")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1 adds the profiled rep and the per-layer ledger")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny request counts: exercises the tool, measures nothing")
    parser.add_argument("--output", help="write the result JSON here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two result files instead of running")
    args = parser.parse_args(argv)

    if args.compare:
        return compare.main(*args.compare)
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        print(f"error: {SRC_DIR}/repro not found; run from a checkout of the repo",
              file=sys.stderr)
        return 2

    sys.path.insert(0, SRC_DIR)
    import workloads

    names = args.workload or list(workloads.WORKLOADS)
    unknown = [name for name in names if name not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r} (known: {', '.join(workloads.WORKLOADS)})")
    reps = measure(names, args.seed, args.seconds, args.smoke, bool(args.trace))
    result = {
        "schema": 1,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "workloads": {
            name: {
                "why": workloads.WORKLOADS[name].why,
                "load": workloads.WORKLOADS[name].load,
                **summarise(reps[name]),
            }
            for name in names
        },
    }
    for name in names:
        print_workload(name, result["workloads"][name])
    if args.output:
        os.makedirs(os.path.dirname(os.path.abspath(args.output)), exist_ok=True)
        with open(args.output, "w") as handle:
            json.dump(result, handle, indent=1)
            handle.write("\n")
        print(f"\nresult written to {args.output}")
    sys.stdout.flush()
    if len(names) == 1:
        print(contract_line(result["workloads"][names[0]], bool(args.trace)))
    return 0 if all(entry["correct"] for entry in result["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
