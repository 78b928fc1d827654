"""Shared machinery for the experiment drivers.

The paper's deployment (f=64, 209 replicas, 256 clients, 1000 requests each)
is far beyond what a pure-Python discrete-event simulation can sweep in
minutes, so every sized sweep takes a named scale: "small" keeps the same
*structure* (same protocols, same client sweep shape, same failure
scenarios) at small f; "medium" and "paper" raise f towards the paper's
value for overnight runs.  Every committed ``BENCH_*.json`` document
records the scale that produced it (docs/benchmarks.md).

Every cluster sweep point is one plain-data :class:`Point`, and
:func:`run_point` is the one place a point's cluster is built and run; a
point with an :class:`Attack` is an adversary episode (the adversary search's
points, :mod:`repro.adversary.search`).

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
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.adversary.forensics import MessageLog, find_equivocations
from repro.adversary.strategies import WeakQuorumConfig, get_strategy
from repro.errors import ConfigurationError
from repro.protocols.cluster import Cluster, ClusterResult, build_cluster
from repro.protocols.registry import protocol_sizes
from repro.sim.faults import FaultPlan
from repro.version import __version__
from repro.workloads.ethereum_workload import EthereumWorkload
from repro.workloads.kv_workload import KVWorkload


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
class Attack:
    """A point's adversary: a strategy kind of
    :mod:`repro.adversary.strategies`, its parameters as sorted ``(name,
    value)`` pairs, and whether the run plants the weak quorum
    (:class:`~repro.adversary.strategies.WeakQuorumConfig`)."""

    strategy: str
    params: Tuple[Tuple[str, Any], ...] = ()
    plant_weak_quorum: bool = False


@dataclass(frozen=True)
class Point:
    """One cluster sweep point, as plain data; :func:`run_point` runs it.

    It has no ``c``: :func:`repro.protocols.registry.protocol_sizes` is the
    one n/c rule.  ``tags`` are the grid's own axis values (its panel, its
    scripted fault's name) that its row reports and the run does not read.
    ``timeline_bucket`` and ``fault_phase`` are
    :meth:`~repro.protocols.cluster.Cluster.run` requests (a windowed
    timeline, before/during/after-fault aggregates).  ``adversary`` is None
    or the :class:`Attack` the run installs.
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
    adversary: Optional[Attack] = None

    @property
    def n(self) -> int:
        return protocol_sizes(self.protocol, self.f)[0]


def point_cluster(point: Point) -> Cluster:
    """``point``'s cluster, built and not yet run."""
    return build_cluster(
        point.protocol,
        f=point.f,
        num_clients=point.clients,
        topology=point.topology,
        batch_size=point.block_batch,
        seed=point.seed,
        fault_plan=point.fault_plan,
        config_overrides=point.config_overrides,
    )


def run_point(point: Point, sanitize: bool = False) -> ClusterResult:
    """Build and run one point's cluster: the experiments' one cluster run.

    A point's adversary is installed after the fault plan and before the
    first event, with a forensics log tapping every sent message; the
    result then carries the equivocation evidence found in that log.
    """
    cluster = point_cluster(point)
    attack = point.adversary
    if attack is not None:
        log = MessageLog()
        adversary = get_strategy(attack.strategy)(dict(attack.params))
        if attack.plant_weak_quorum:
            cluster.config = WeakQuorumConfig(**asdict(cluster.config))

        def install(built: Cluster) -> None:
            built.network.add_tap(log.tap)
            adversary.install(built)

        cluster.post_build = install
    result = cluster.run(
        point.workload.build(point),
        max_sim_time=point.max_sim_time,
        label=point.label,
        timeline_bucket=point.timeline_bucket,
        fault_phase=point.fault_phase,
        sanitize=sanitize,
    )
    if attack is not None:
        setup = cluster.setup
        verify_keys = {i: setup.replica_verify_key(i) for i in range(cluster.config.n)}
        schemes = {scheme.name: scheme for scheme in (setup.sigma, setup.tau, setup.pi)}
        result.evidence = find_equivocations(log.records, verify_keys, schemes)
    return result


def scale_entry(table: Dict[str, Any], name: str, kind: str = "scale") -> Any:
    """``table[name]`` of a sweep's per-``kind`` table; an unknown name raises."""
    if name not in table:
        raise ConfigurationError(f"unknown {kind} {name!r} (known: {', '.join(table)})")
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
    ``scales``, ``seed``, and the ``axes`` names) to the ordered
    :class:`Point` records, which :func:`run_point` runs (the only timed
    call); ``row`` turns ``(point, result)`` into the row without its cost
    fields.  Both are module-level functions and points are plain data, so
    a ``(sweep, point)`` pair pickles for the worker processes.  ``axes`` are the sweep's own CLI flags, ``grid``
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
    grid: Callable[..., List[Point]]
    row: Callable[[Point, ClusterResult], Dict]
    axes: Dict[str, Dict]
    scales: Sequence[str] = ()
    table_columns: Optional[Sequence[str]] = None
    report_flags: Dict[str, Dict] = field(default_factory=dict)
    report: Optional[Callable[[Any, List[Any], List[Dict]], int]] = None


def _run_sweep_point(spec: Tuple[Sweep, Any]) -> Dict:
    """Run and time one point of ``sweep``; the one picklable point worker."""
    sweep, point = spec
    started = time.perf_counter()
    cpu_started = time.process_time()
    result = run_point(point)
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
    rows equal a serial run's outside :data:`HOST_FIELDS`.  A label that
    names two points raises before any point runs: the baseline gate
    matches rows by label.
    """
    repeated = _repeated_label(point.label for point in points)
    if repeated is not None:
        raise ConfigurationError(f"two sweep points share the label {repeated!r}")
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
    one side only.  A baseline with a repeated label always fails: matched
    by label, all but one of its rows would go unchecked (:func:`run`
    refuses such a point list).  Returns ``(ok, message)``; a failure names
    the first ``(label, key, baseline, current)`` that differs.
    """
    baseline_rows = [bench["extra_info"] for bench in baseline_document.get("benchmarks", [])]
    repeated = _repeated_label(row["label"] for row in baseline_rows)
    if repeated is not None:
        return False, f"the baseline has two rows labelled {repeated!r}"
    baseline = {row["label"]: row for row in baseline_rows}
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


def _repeated_label(labels: Iterable[str]) -> Optional[str]:
    """The first label that occurs more than once in ``labels``, or None."""
    return next((label for label, count in Counter(labels).items() if count > 1), None)


def format_table(rows: Iterable[Dict], columns: Optional[Sequence[str]] = None) -> str:
    """Render result rows as an aligned text table (for examples and logs)."""
    rows = [dict(row) for row in rows]
    if not rows:
        return "(no rows)"
    if columns is None:
        # Union of keys across rows, in order of first appearance.
        columns = list(dict.fromkeys(key for row in rows for key in row))
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
