"""Shared machinery for the experiment drivers.

The paper's deployment (f=64, 209 replicas, 256 clients, 1000 requests each)
is far beyond what a pure-Python discrete-event simulation can sweep in
minutes, so every sized sweep takes a named scale: "small" keeps the same
*structure* (same protocols, same client sweep shape, same failure
scenarios) at small f; "medium" and "paper" raise f towards the paper's
value for overnight runs.  Every committed ``BENCH_*.json`` document
records the scale that produced it (docs/benchmarks.md).

Every cluster sweep point is one plain-data :class:`Point`, and
:func:`run_point` is the one place a point's cluster is built and run.

Every experiment of :mod:`repro.experiments` and the adversary search share
one grid runner: a module describes itself as a :class:`Sweep`, :func:`run`
turns its points into rows that carry exactly its ``ROW_SCHEMA`` keys (in
worker processes with ``jobs > 1``; every point is a pure function of its
seed, so the rows equal a serial run's), and :func:`main` is its CLI
(``--scale/--seed/--jobs/--output/--check-against`` plus the sweep's own grid
flags).  ``--check-against`` is :func:`check_against_baseline`: every row key
outside :data:`HOST_FIELDS` is a pure function of the seed and must equal the
committed baseline; host clocks are never compared (``benchmarks/perf/`` owns
host-time measurement).
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError
from repro.protocols.cluster import ClusterResult, build_cluster
from repro.protocols.registry import protocol_sizes
from repro.sim.faults import FaultPlan
from repro.version import __version__
from repro.workloads.ethereum_workload import EthereumWorkload
from repro.workloads.kv_workload import KVWorkload


@dataclass(frozen=True)
class ExperimentScale:
    """How big to run an experiment."""

    name: str
    f: int
    client_counts: Sequence[int]
    requests_per_client: int
    block_batch: int            # client requests per decision block
    max_sim_time: float


SMALL_SCALE = ExperimentScale("small", f=2, client_counts=(4, 16, 32), requests_per_client=4,
                              block_batch=8, max_sim_time=240.0)
MEDIUM_SCALE = ExperimentScale("medium", f=8, client_counts=(4, 32, 64, 128),
                               requests_per_client=4, block_batch=16, max_sim_time=600.0)
PAPER_SCALE = ExperimentScale("paper", f=64, client_counts=(4, 32, 64, 128, 192, 256),
                              requests_per_client=16, block_batch=16, max_sim_time=3600.0)

SCALES: Dict[str, ExperimentScale] = {
    scale.name: scale for scale in (SMALL_SCALE, MEDIUM_SCALE, PAPER_SCALE)
}


@dataclass(frozen=True)
class KV:
    """A point's KV workload: ``requests`` per client of ``batch`` puts each."""

    requests: int
    batch: int

    def build(self, point: "Point") -> KVWorkload:
        return KVWorkload(requests_per_client=self.requests, batch_size=self.batch,
                          seed=point.seed + 1)


@dataclass(frozen=True)
class Ethereum:
    """A point's smart-contract workload: ``transactions`` shared by the clients."""

    transactions: int

    def build(self, point: "Point") -> EthereumWorkload:
        return EthereumWorkload(num_transactions=self.transactions, num_accounts=100,
                                num_clients=point.clients, seed=7)


@dataclass(frozen=True)
class Point:
    """One cluster sweep point, as plain data; :func:`run_point` runs it.

    It has no ``c``: :func:`repro.protocols.registry.protocol_sizes` is the
    one n/c rule.  ``tags`` are the grid's own axis values (a fault-scenario
    name, a primary fault) that its row reports and the run does not read.
    ``timeline_bucket`` and ``fault_phase`` are the fault sweep's
    :meth:`~repro.protocols.cluster.Cluster.run` requests.
    """

    protocol: str
    f: int
    clients: int
    workload: Union[KV, Ethereum]
    label: str
    topology: str = "continent"
    block_batch: int = 4
    seed: int = 0
    fault_plan: Optional[FaultPlan] = None
    config_overrides: Dict[str, Any] = field(default_factory=dict)
    max_sim_time: float = 300.0
    tags: Dict[str, Any] = field(default_factory=dict)
    timeline_bucket: Optional[float] = None
    fault_phase: Optional[Tuple[float, float]] = None

    @property
    def n(self) -> int:
        return protocol_sizes(self.protocol, self.f)[0]


def run_point(point: Point, sanitize: bool = False) -> ClusterResult:
    """Build and run one point's cluster: the experiments' one cluster run."""
    cluster = build_cluster(
        point.protocol,
        f=point.f,
        num_clients=point.clients,
        topology=point.topology,
        batch_size=point.block_batch,
        seed=point.seed,
        fault_plan=point.fault_plan,
        config_overrides=point.config_overrides,
    )
    return cluster.run(
        point.workload.build(point),
        max_sim_time=point.max_sim_time,
        label=point.label,
        timeline_bucket=point.timeline_bucket,
        fault_phase=point.fault_phase,
        sanitize=sanitize,
    )


def scale_entry(table: Dict[str, Any], name: str) -> Any:
    """``table[name]`` of a sweep's per-scale table; an unknown name raises."""
    if name not in table:
        raise ConfigurationError(f"unknown scale {name!r} (known: {', '.join(table)})")
    return table[name]


#: Row keys read from the host's clocks.  They stay on the rows as
#: information; the baseline gate and every rows-are-identical test ignore
#: exactly this set, and every other key is a pure function of the seed.
HOST_FIELDS = frozenset(
    {
        "wall_seconds",
        "cpu_seconds",
        "wall_us_per_event",
        "cpu_us_per_event",
        "wall_us_per_message",
    }
)

#: Row keys common to every cluster sweep (each sweep adds its own).
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
    "wall_seconds": "host wall-clock cost of the point (information, not gated)",
    "cpu_seconds": "host per-process CPU cost of the point (not gated)",
    "sim_seconds": "simulated duration of the run",
    "events_processed": "discrete events the simulator executed",
    "wall_us_per_event": "host wall-clock microseconds per simulated event (not gated)",
    "cpu_us_per_event": "host CPU microseconds per simulated event (not gated)",
}


@dataclass(frozen=True)
class Sweep:
    """What one sweep tells the grid runner (:func:`run` and :func:`main`).

    ``grid`` maps keyword grid axes (``scale_name`` when the sweep has
    ``scales``, ``seed``, and the ``axes`` names) to the ordered points;
    ``run_point`` runs one point and is the only timed call (a cluster
    sweep's points are :class:`Point` records and its ``run_point`` is
    :func:`run_point`); ``row`` turns ``(point, result)`` into the row
    without its cost fields.  All three are module-level functions and
    points are plain data, so a ``(sweep, point)`` pair pickles for the
    worker processes.  ``axes`` are the sweep's own CLI flags, ``grid``
    keyword -> argparse options: a flag that is not passed leaves ``grid``'s
    default in force, and passing any of them marks the run as a partial
    grid for the baseline gate.  ``report_flags`` are
    flags only ``report`` reads; ``report(args, points, rows)`` prints what
    the table does not show and returns an exit status.
    """

    group: str
    summary: str
    example: str
    row_schema: Dict[str, str]
    grid: Callable[..., List[Any]]
    row: Callable[[Any, Any], Dict]
    axes: Dict[str, Dict]
    run_point: Callable[[Any], Any] = run_point
    scales: Sequence[str] = ()
    table_columns: Optional[Sequence[str]] = None
    report_flags: Dict[str, Dict] = field(default_factory=dict)
    report: Optional[Callable[[Any, List[Any], List[Dict]], int]] = None


def _run_sweep_point(spec: Tuple[Sweep, Any]) -> Dict:
    """Run and time one point of ``sweep``; the one picklable point worker."""
    sweep, point = spec
    started = time.perf_counter()
    cpu_started = time.process_time()
    result = sweep.run_point(point)
    wall = time.perf_counter() - started
    cpu = time.process_time() - cpu_started
    events = max(1, result.events_processed)
    row = sweep.row(point, result)
    row.update(
        wall_seconds=round(wall, 4),
        cpu_seconds=round(cpu, 4),
        sim_seconds=round(result.sim_time, 4),
        events_processed=result.events_processed,
        wall_us_per_event=round(1e6 * wall / events, 2),
        cpu_us_per_event=round(1e6 * cpu / events, 2),
    )
    if "wall_us_per_message" in sweep.row_schema:
        row["wall_us_per_message"] = round(1e6 * wall / max(1, row["messages_sent"]), 2)
    if set(row) != set(sweep.row_schema):
        raise ValueError(
            f"{sweep.group} row {row['label']!r} and its ROW_SCHEMA disagree on keys "
            f"{sorted(set(row) ^ set(sweep.row_schema))}"
        )
    return row


def run(sweep: Sweep, points: Sequence[Any], jobs: int = 1) -> List[Dict]:
    """Run ``points`` of ``sweep``; one row per point, in point order.

    Every row carries exactly the keys of ``sweep.row_schema`` (a row
    function and a schema that disagree raise).  With ``jobs > 1`` the
    points run in worker processes; each point seeds its own simulator, so
    rows equal a serial run's outside :data:`HOST_FIELDS`.
    """
    specs = [(sweep, point) for point in points]
    jobs = max(1, int(jobs or 1))
    if jobs > 1 and len(specs) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(specs))) as pool:
            return list(pool.map(_run_sweep_point, specs))
    return [_run_sweep_point(spec) for spec in specs]


def _epilog(sweep: Sweep) -> str:
    """``--help`` epilog: the example invocation and the row schema."""
    lines = ["example:", f"  {sweep.example}", "", "output row keys:"]
    width = max(len(key) for key in sweep.row_schema)
    for key, meaning in sweep.row_schema.items():
        lines.append(f"  {key.ljust(width)}  {meaning}")
    return "\n".join(lines)


def main(sweep: Sweep, argv: Optional[Sequence[str]] = None) -> int:
    """The one sweep CLI: parse, run the grid, print, write, gate."""
    parser = argparse.ArgumentParser(
        description=sweep.summary,
        epilog=_epilog(sweep),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    if sweep.scales:
        parser.add_argument("--scale", default="small", choices=sorted(sweep.scales))
    parser.add_argument("--seed", type=int, default=0)
    for name, options in {**sweep.axes, **sweep.report_flags}.items():
        parser.add_argument("--" + name.replace("_", "-"), default=None, **options)
    parser.add_argument("--output", default=None, help="write --benchmark-json-style output here")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="run sweep points in N worker processes (rows equal --jobs 1 outside "
        "the host-clock keys: every point is an independent fixed-seed "
        "simulation and rows are returned in grid order)",
    )
    parser.add_argument(
        "--check-against",
        default=None,
        metavar="BASELINE_JSON",
        help="fail unless every row equals the --output baseline row of the same "
        "label on every key the seed determines (all but the host-clock keys)",
    )
    args = parser.parse_args(argv)

    passed = {name: getattr(args, name) for name in sweep.axes if getattr(args, name) is not None}
    scale = args.scale if sweep.scales else None
    scale_axis = {"scale_name": scale} if sweep.scales else {}
    try:
        points = sweep.grid(seed=args.seed, **scale_axis, **passed)
        rows = run(sweep, points, jobs=args.jobs)
    except ConfigurationError as error:
        parser.error(str(error))
    print(format_table(rows, columns=sweep.table_columns))
    status = sweep.report(args, points, rows) if sweep.report else 0

    if args.output:
        document = emit_benchmark_json(rows, group=sweep.group, commit_info={"scale": scale})
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
        print(f"wrote {args.output}")
    if args.check_against:
        with open(args.check_against, "r", encoding="utf-8") as handle:
            baseline_document = json.load(handle)
        full_grid = not passed and baseline_document.get("commit_info", {}).get("scale") == scale
        ok, message = check_against_baseline(rows, baseline_document, full_grid)
        print(("OK: " if ok else "FAIL: ") + message)
        if not ok:
            status = 1
    return status


def emit_benchmark_json(rows: List[Dict], group: str, commit_info: Optional[Dict] = None) -> Dict:
    """Wrap sweep rows in a ``pytest-benchmark --benchmark-json`` document.

    Every committed ``BENCH_*.json`` baseline has this shape.  Rows must
    carry ``label`` and ``wall_seconds``; the full row is preserved in
    ``extra_info`` (which is what :func:`check_against_baseline` compares).
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


def check_against_baseline(
    rows: List[Dict], baseline_document: Dict, full_grid: bool
) -> Tuple[bool, str]:
    """Require every row to equal the baseline row of the same label.

    Rows are compared after a JSON round trip, on every key outside
    :data:`HOST_FIELDS` — those are pure functions of the seed, so any
    difference is a behaviour change, never noise.  Having no label in
    common with the baseline fails; with ``full_grid`` (same ``--scale`` as
    the baseline and no grid-axis flag passed) so does a label present on
    one side only.  Returns ``(ok, message)``; a failure names the first
    ``(label, key, baseline, current)`` that differs.
    """
    baseline = {
        bench["extra_info"]["label"]: bench["extra_info"]
        for bench in baseline_document.get("benchmarks", [])
    }
    current = {row["label"]: row for row in json.loads(json.dumps(rows))}
    common = [label for label in current if label in baseline]
    if not common:
        return False, "no sweep point has a label in common with the baseline"
    one_sided = sorted(baseline.keys() ^ current.keys())
    if full_grid and one_sided:
        side = "run" if one_sided[0] in baseline else "baseline"
        return False, f"point {one_sided[0]!r} is missing from the {side}"
    absent = "<absent>"
    for label in common:
        ours, theirs = current[label], baseline[label]
        for key in sorted((ours.keys() | theirs.keys()) - HOST_FIELDS):
            if ours.get(key, absent) != theirs.get(key, absent):
                return False, (
                    f"{label}: {key} is {ours.get(key, absent)!r}, "
                    f"baseline has {theirs.get(key, absent)!r}"
                )
    return True, (
        f"{len(common)} point(s) equal the baseline on every key outside the host clocks"
    )


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
