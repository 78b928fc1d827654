"""Shared machinery for the experiment drivers.

The paper's deployment (f=64, 209 replicas, 256 clients, 1000 requests each)
is far beyond what a pure-Python discrete-event simulation can sweep in
minutes, so every experiment is parameterised by an :class:`ExperimentScale`:
the default "small" scale keeps the same *structure* (same protocols, same
client sweep shape, same failure scenarios) at f=4; the "medium" and "paper"
scales raise f towards the paper's value for overnight runs.  EXPERIMENTS.md
records which scale produced the recorded numbers.

Sweep grids (protocol x failures x client-count points) are embarrassingly
parallel: every point is an independent simulation that is a pure function of
its seed.  :func:`run_points` fans a grid out over a
``concurrent.futures.ProcessPoolExecutor`` when ``jobs > 1`` (the ``--jobs N``
flag wired by :func:`add_jobs_argument`), and returns rows in input order, so
parallel runs produce results identical to serial ones.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.protocols.cluster import ClusterResult, build_cluster
from repro.sim.faults import FaultPlan
from repro.version import __version__
from repro.workloads.kv_workload import KVWorkload


@dataclass(frozen=True)
class ExperimentScale:
    """How big to run an experiment."""

    name: str
    f: int
    c_for_sbft_c8: int
    client_counts: Sequence[int]
    requests_per_client: int
    block_batch: int            # client requests per decision block
    max_sim_time: float

    @property
    def n_c0(self) -> int:
        return 3 * self.f + 1

    @property
    def n_c8(self) -> int:
        return 3 * self.f + 2 * self.c_for_sbft_c8 + 1


SMALL_SCALE = ExperimentScale(
    name="small",
    f=2,
    c_for_sbft_c8=1,
    client_counts=(4, 16, 32),
    requests_per_client=4,
    block_batch=8,
    max_sim_time=240.0,
)

MEDIUM_SCALE = ExperimentScale(
    name="medium",
    f=8,
    c_for_sbft_c8=2,
    client_counts=(4, 32, 64, 128),
    requests_per_client=4,
    block_batch=16,
    max_sim_time=600.0,
)

PAPER_SCALE = ExperimentScale(
    name="paper",
    f=64,
    c_for_sbft_c8=8,
    client_counts=(4, 32, 64, 128, 192, 256),
    requests_per_client=16,
    block_batch=16,
    max_sim_time=3600.0,
)

SCALES: Dict[str, ExperimentScale] = {
    "small": SMALL_SCALE,
    "medium": MEDIUM_SCALE,
    "paper": PAPER_SCALE,
}


def protocol_sizes(protocol: str, f: int) -> Tuple[int, int]:
    """``(n, c)`` for one sweep point at replication factor ``f``.

    The sweeps' shared convention: ``sbft-c8`` runs with ``c = max(1, f //
    8)`` redundant servers (``n = 3f + 2c + 1``); every other variant runs
    with ``c = 0`` (``n = 3f + 1``).  Single source of truth for the scale,
    smart-contract and fault sweeps.
    """
    c = max(1, f // 8) if protocol == "sbft-c8" else 0
    return 3 * f + 2 * c + 1, c


def run_kv_point(
    protocol: str,
    scale: ExperimentScale,
    num_clients: int,
    kv_batch: int,
    failures: int = 0,
    topology: str = "continent",
    seed: int = 0,
    label: Optional[str] = None,
) -> ClusterResult:
    """Run one (protocol, #clients, #failures) point of the KV benchmark."""
    c = scale.c_for_sbft_c8 if protocol == "sbft-c8" else None
    n = scale.n_c8 if protocol == "sbft-c8" else scale.n_c0
    fault_plan = FaultPlan.crash_backups(failures, n) if failures else None
    cluster = build_cluster(
        protocol,
        f=scale.f,
        c=c,
        num_clients=num_clients,
        topology=topology,
        batch_size=scale.block_batch,
        seed=seed,
        fault_plan=fault_plan,
    )
    workload = KVWorkload(
        requests_per_client=scale.requests_per_client,
        batch_size=kv_batch,
        seed=seed + 1,
    )
    return cluster.run(workload, max_sim_time=scale.max_sim_time, label=label or protocol)


def make_epilog(example: str, row_schema: Dict[str, str]) -> str:
    """Build an argparse ``--help`` epilog: example invocation + row schema.

    Every sweep CLI uses this so ``--help`` alone documents how to run the
    sweep and what each output-row key means (render with
    ``argparse.RawDescriptionHelpFormatter``).
    """
    lines = ["example:", f"  {example}", "", "output row keys:"]
    width = max(len(key) for key in row_schema)
    for key, meaning in row_schema.items():
        lines.append(f"  {key.ljust(width)}  {meaning}")
    return "\n".join(lines)


#: Row keys common to every sweep (sweep-specific keys are documented per CLI).
COMMON_ROW_SCHEMA: Dict[str, str] = {
    "label": "unique sweep-point name; --check-against matches points by label",
    "throughput_ops": "simulated operations per second over the run",
    "mean_latency_ms": "mean simulated request latency (milliseconds)",
    "median_latency_ms": "median simulated request latency (milliseconds)",
    "p99_latency_ms": "99th-percentile simulated request latency (milliseconds)",
    "completed_operations": "operations executed and acknowledged to clients",
    "messages_sent": "network messages sent during the run",
    "bytes_sent": "network bytes sent during the run",
    "protocol": "protocol variant (see repro.protocols.registry)",
    "f": "tolerated Byzantine replicas at this point",
    "n": "total replicas at this point",
    "wall_seconds": "harness wall-clock cost of the point (min over --rounds)",
    "cpu_seconds": "harness per-process CPU cost of the point",
    "sim_seconds": "simulated duration of the run",
    "events_processed": "discrete events the simulator executed",
    "wall_us_per_event": "wall-clock microseconds per simulated event",
    "cpu_us_per_event": "CPU microseconds per simulated event (the CI gate metric)",
}


def add_jobs_argument(parser) -> None:
    """Add the shared ``--jobs N`` sweep-parallelism flag to a CLI parser."""
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="run sweep points in N worker processes (results are identical "
        "to --jobs 1: every point is an independent fixed-seed simulation "
        "and rows are returned in grid order)",
    )


def add_rounds_argument(parser) -> None:
    """Add the shared ``--rounds N`` min-of-N repetition flag to a CLI parser.

    Every sweep measures harness cost as the fastest of ``N`` fixed-seed
    repetitions (see :func:`timed_rounds`); defining the flag here keeps the
    help text — and the baseline-regeneration convention it documents — in
    one place.
    """
    parser.add_argument(
        "--rounds",
        type=int,
        default=1,
        help="fixed-seed repetitions per point; the min-wall-clock round is "
        "reported (use 3 when regenerating the committed baseline)",
    )


def timed_rounds(run: Callable[[], Any], rounds: int = 1) -> Tuple[float, float, Any]:
    """Run ``run`` for ``rounds`` fixed-seed repetitions, keep the fastest.

    The trajectory baselines' min-of-N noise filter: simulated results are
    identical across rounds by construction, so only the harness clocks
    differ and the minimum-wall-clock round is reported.  Every round builds
    its own cluster and therefore starts on a cold execution cache.
    Returns ``(wall_seconds, cpu_seconds, result)``.
    """
    best = None
    for _ in range(max(1, rounds)):
        started = time.perf_counter()
        cpu_started = time.process_time()
        result = run()
        # Both clocks: wall for human-facing sweep cost, per-process CPU for
        # the perf gate (worker processes of a --jobs run time-slice the
        # machine, so wall clocks include scheduler contention; CPU does not).
        wall = time.perf_counter() - started
        cpu = time.process_time() - cpu_started
        if best is None or wall < best[0]:
            best = (wall, cpu, result)
    return best


def harness_cost_fields(wall: float, cpu: float, result) -> Dict:
    """The per-point harness-cost row keys shared by every sweep.

    The CI gate metric ``cpu_us_per_event`` (and its wall-clock sibling) is
    derived here and only here, so the gates cannot diverge across sweeps.
    """
    events = max(1, result.events_processed)
    return {
        "wall_seconds": round(wall, 4),
        "cpu_seconds": round(cpu, 4),
        "sim_seconds": round(result.sim_time, 4),
        "events_processed": result.events_processed,
        "wall_us_per_event": round(1e6 * wall / events, 2),
        "cpu_us_per_event": round(1e6 * cpu / events, 2),
    }


def add_baseline_arguments(parser) -> None:
    """The shared sweep-CLI tail: ``--output/--jobs/--check-against/--max-regression``.

    Every sweep CLI carries the same baseline/gate flags; adding them here
    keeps the help text (and the gate semantics it documents) in one place.
    """
    parser.add_argument("--output", default=None, help="write --benchmark-json-style output here")
    add_jobs_argument(parser)
    parser.add_argument(
        "--check-against",
        default=None,
        metavar="BASELINE_JSON",
        help="fail if CPU time per simulated event (cpu_us_per_event) regresses "
        "against this --benchmark-json baseline (the CI perf smoke gate)",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=2.0,
        help="allowed per-event cost ratio vs --check-against (default 2.0)",
    )


def emit_and_gate(rows: List[Dict], group: str, scale_name: str, args) -> int:
    """Shared sweep-CLI epilogue: honour ``--output`` and ``--check-against``.

    Writes the benchmark-JSON document when requested, then evaluates the
    per-event perf gate; returns the process exit code (1 on gate failure).
    """
    if args.output:
        document = emit_benchmark_json(rows, group=group, commit_info={"scale": scale_name})
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
        print(f"wrote {args.output}")
    if args.check_against:
        with open(args.check_against, "r", encoding="utf-8") as handle:
            baseline_document = json.load(handle)
        ok, message = check_per_event_regression(rows, baseline_document, args.max_regression)
        print(("OK: " if ok else "FAIL: ") + message)
        if not ok:
            return 1
    return 0


def run_points(
    worker: Callable[[Any], Dict],
    specs: Sequence[Any],
    jobs: int = 1,
) -> List[Dict]:
    """Run ``worker`` over every point spec, optionally in parallel.

    ``worker`` must be a picklable module-level function taking one spec and
    returning a plain-data row.  With ``jobs > 1`` the specs are mapped over
    a ``ProcessPoolExecutor``; rows come back in spec order either way, and
    since each point seeds its own simulator, parallel execution produces
    byte-identical rows to serial execution.
    """
    specs = list(specs)
    jobs = max(1, int(jobs or 1))
    if jobs > 1 and len(specs) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(specs))) as pool:
            return list(pool.map(worker, specs))
    return [worker(spec) for spec in specs]


def emit_benchmark_json(rows: List[Dict], group: str, commit_info: Optional[Dict] = None) -> Dict:
    """Wrap sweep rows in a ``pytest-benchmark --benchmark-json`` document.

    Shared by the scale sweep and the smart-contract sweep so every committed
    ``BENCH_*.json`` trajectory baseline has the same shape.  Rows must carry
    ``label`` and ``wall_seconds``; the full row is preserved in
    ``extra_info`` (which is what :func:`check_per_event_regression` gates
    on).
    """
    benchmarks = []
    for row in rows:
        wall = float(row["wall_seconds"])
        params = {key: row[key] for key in ("protocol", "topology", "f", "n") if key in row}
        benchmarks.append(
            {
                "group": group,
                "name": f"{group}[{row['label']}]",
                "fullname": f"benchmarks/{group}.py::{group}[{row['label']}]",
                "params": params,
                "stats": {
                    "min": wall,
                    "max": wall,
                    "mean": wall,
                    "stddev": 0.0,
                    "median": wall,
                    "rounds": 1,
                    "iterations": 1,
                    "ops": (1.0 / wall) if wall > 0 else 0.0,
                },
                "extra_info": dict(row),
            }
        )
    return {
        "machine_info": {
            "python_version": platform.python_version(),
            "platform": platform.platform(),
            "repro_version": __version__,
        },
        "commit_info": dict(commit_info or {}),
        "benchmarks": benchmarks,
    }


def check_per_event_regression(
    rows: List[Dict], baseline_document: Dict, max_regression: float
) -> Tuple[bool, str]:
    """Compare CPU time per simulated event against a baseline document.

    Matches sweep points by label against the baseline's ``extra_info`` and
    computes the geometric-mean ratio (current / baseline) over the common
    points — the committed baseline may have been produced at a larger
    ``--scale``, so a small smoke sweep only gates on the overlap.  Per-point
    cost is ``cpu_us_per_event``: per-process CPU time is immune to the
    worker-process contention of ``--jobs`` runs.  Returns ``(ok,
    human-readable message)``; ``ok`` is false when the mean ratio exceeds
    ``max_regression``.
    """
    baseline = {}
    for bench in baseline_document.get("benchmarks", []):
        extra = bench.get("extra_info", {})
        label = extra.get("label")
        if label:
            baseline[label] = extra
    ratios = []
    for row in rows:
        base = baseline.get(row["label"], {}).get("cpu_us_per_event")
        current = row.get("cpu_us_per_event")
        if base and current:
            ratios.append(float(current) / float(base))
    if not ratios:
        return True, "perf check skipped: no sweep points in common with the baseline"
    geomean = 1.0
    for ratio in ratios:
        geomean *= ratio
    geomean **= 1.0 / len(ratios)
    message = (
        f"cpu_us_per_event: {geomean:.2f}x the baseline over "
        f"{len(ratios)} common point(s) (limit {max_regression:.2f}x)"
    )
    return geomean <= max_regression, message


def format_table(rows: Iterable[Dict], columns: Optional[Sequence[str]] = None) -> str:
    """Render result rows as an aligned text table (for examples and logs)."""
    rows = [dict(row) for row in rows]
    if not rows:
        return "(no rows)"
    if columns is None:
        # Union of keys across rows, in order of first appearance.
        columns = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
    widths = {col: max(len(str(col)), max(len(str(row.get(col, ""))) for row in rows)) for col in columns}
    header = "  ".join(str(col).ljust(widths[col]) for col in columns)
    separator = "  ".join("-" * widths[col] for col in columns)
    lines = [header, separator]
    for row in rows:
        lines.append("  ".join(str(row.get(col, "")).ljust(widths[col]) for col in columns))
    return "\n".join(lines)


def result_row(result: ClusterResult, **extra) -> Dict:
    """Flatten a cluster result into a table row."""
    row = result.run.as_row()
    row.update(extra)
    return row
