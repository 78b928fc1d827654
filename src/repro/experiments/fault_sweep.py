"""Fault sweep — performance under failure, over time (Section VIII).

The paper's headline claim is not only fast-path throughput but *graceful
degradation*: with up to ``c`` crashed or slow replicas the fast path falls
back to linear-PBFT, and a view change recovers liveness under a faulty
primary.  A scalar throughput number cannot show any of that — the signal is
the shape of the run: the dip when backups crash, the stall while the view
change elects a new primary, the ramp back up after a partition heals.

This sweep runs a (protocol × topology × scenario) grid where each scenario
is a scripted fault timeline (all activation times are **absolute simulation
times**), and reports per point:

* a windowed time series — operations/second and latency per bucket — and
* before / during / after-fault phase aggregates,

so fast-path→slow-path fallback and recovery are visible as data.  Scenarios:

* ``crash-backups``   — ``f`` backups crash mid-run and stay down; the
  cluster falls back to the linear-PBFT path and keeps committing.
* ``slow-stragglers`` — ``f`` backups become 8× stragglers, then heal.
* ``faulty-primary``  — the primary crashes while a backup spreads stale
  view-change messages; a view change recovers liveness.
* ``partition-heal``  — ``f`` backups are partitioned away, then the
  partition heals and the minority catches up.
* ``crash-restart``   — ``f`` backups crash, then restart and re-sync via
  the checkpoint/state-transfer machinery.

:mod:`repro.experiments.harness` owns the CLI (``--help`` prints the row
schema; docs/benchmarks.md explains the ``timeline`` and ``phases`` keys)::

    PYTHONPATH=src python -m repro.experiments.fault_sweep \
        --scale small --output BENCH_fault_sweep.json
    PYTHONPATH=src python -m repro.experiments.fault_sweep \
        --scale small --jobs 2 --check-against BENCH_fault_sweep.json

``BENCH_fault_sweep.json`` at the repo root is the committed baseline; the
second form is the CI gate: every seed-determined row key, timelines and
phases included, must equal it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.adversary.behaviours import stale_view_change
from repro.errors import ConfigurationError
from repro.experiments import harness
from repro.experiments.harness import KV, COMMON_ROW_SCHEMA, Point, result_row
from repro.protocols.cluster import ClusterResult
from repro.protocols.registry import protocol_sizes
from repro.sim.faults import FaultPlan

#: Width of one timeline bucket, seconds of simulated time.
TIMELINE_BUCKET = 0.25

#: Shared protocol timer overrides: short enough that fallback, view change
#: and client retry all happen within the scripted timelines below.
CONFIG_OVERRIDES = {
    "fast_path_timeout": 0.05,
    "batch_timeout": 0.01,
    "view_change_timeout": 1.0,
    "client_retry_timeout": 1.5,
    "checkpoint_interval": 8,
}


@dataclass(frozen=True)
class FaultScenario:
    """One scripted fault timeline.

    ``fault_start`` and ``fault_end`` are absolute simulation times bounding
    the *during* phase: for transient scenarios ``fault_end`` is when the
    recovery action (heal / restart) fires; for permanent ones it is when the
    degraded steady state is expected to have settled.  ``build_plan`` maps
    ``(protocol, n, f, c)`` to the scenario's :class:`FaultPlan`.
    """

    name: str
    fault_start: float
    fault_end: float
    description: str
    build_plan: Callable[[str, int, int, int], FaultPlan]


def _crash_backups_plan(protocol: str, n: int, f: int, c: int) -> FaultPlan:
    return FaultPlan.crash_backups(f, n, at_time=1.0)


def _slow_stragglers_plan(protocol: str, n: int, f: int, c: int) -> FaultPlan:
    stragglers = list(range(n - f, n))
    plan = FaultPlan.slow(stragglers, factor=8.0, at_time=1.0)
    return plan.extend(FaultPlan.heal(stragglers, at_time=3.0))


def _faulty_primary_plan(protocol: str, n: int, f: int, c: int) -> FaultPlan:
    plan = FaultPlan.crash_first(1, at_time=1.0)
    if protocol != "pbft":
        # One backup (never the next primary, replica 1) additionally spreads
        # stale view-change messages; the dual-mode view change must tolerate
        # its empty evidence.  The behaviour covers PBFT too (see
        # repro.adversary.behaviours), but the committed BENCH_fault_sweep.json
        # trajectories predate it, so the PBFT scenario stays a plain primary
        # crash; the adversary lab covers the Byzantine PBFT view change.
        plan = plan.extend(FaultPlan.byzantine([n - 1], stale_view_change, at_time=0.0))
    return plan


def _partition_heal_plan(protocol: str, n: int, f: int, c: int) -> FaultPlan:
    minority = list(range(n - f, n))
    plan = FaultPlan.partition(minority, n, at_time=1.0)
    return plan.extend(FaultPlan.heal(minority, at_time=3.0))


def _crash_restart_plan(protocol: str, n: int, f: int, c: int) -> FaultPlan:
    crashed = list(range(n - f, n))
    plan = FaultPlan.crash_first(f, node_ids=crashed, at_time=1.0)
    return plan.extend(FaultPlan.restart(crashed, at_time=3.0))


SCENARIOS: Dict[str, FaultScenario] = {
    scenario.name: scenario
    for scenario in (
        FaultScenario(
            name="crash-backups",
            fault_start=1.0,
            fault_end=2.0,
            description="f backups crash and stay down (fast path -> linear-PBFT)",
            build_plan=_crash_backups_plan,
        ),
        FaultScenario(
            name="slow-stragglers",
            fault_start=1.0,
            fault_end=3.0,
            description="f backups become 8x stragglers, then heal",
            build_plan=_slow_stragglers_plan,
        ),
        FaultScenario(
            name="faulty-primary",
            fault_start=1.0,
            fault_end=2.5,
            description="primary crashes (+ stale view-changes); view change recovers",
            build_plan=_faulty_primary_plan,
        ),
        FaultScenario(
            name="partition-heal",
            fault_start=1.0,
            fault_end=3.0,
            description="f backups partitioned away, partition heals",
            build_plan=_partition_heal_plan,
        ),
        FaultScenario(
            name="crash-restart",
            fault_start=1.0,
            fault_end=3.0,
            description="f backups crash, restart and re-sync via state transfer",
            build_plan=_crash_restart_plan,
        ),
    )
}

DEFAULT_PROTOCOLS: Tuple[str, ...] = ("sbft-c0", "sbft-c8", "pbft")
DEFAULT_TOPOLOGIES: Tuple[str, ...] = ("continent",)


#: How big to run each point, per scale: ``requests`` per client of
#: ``kv_batch`` puts each, ``block_batch`` client requests per block.
#: ``requests`` must keep every (protocol, scenario) point busy past the
#: latest ``fault_end`` (3.0 s), so that heal/restart actions fire and the
#: *after* phase has data even for the protocol/scenario pairs that degrade
#: the least (PBFT barely notices f crashed backups).
SWEEP_SCALES: Dict[str, Dict[str, Any]] = {
    "small": dict(f=1, clients=6, requests=32, kv_batch=4, block_batch=4, max_sim_time=120.0),
    "medium": dict(f=2, clients=8, requests=40, kv_batch=4, block_batch=8, max_sim_time=240.0),
    "paper": dict(f=4, clients=16, requests=48, kv_batch=8, block_batch=8, max_sim_time=600.0),
}


def _point(protocol: str, topology: str, scenario: FaultScenario, size: Dict, seed: int) -> Point:
    """One (protocol, topology, scenario) point: its run carries the windowed
    timeline and the phase aggregates."""
    f = size["f"]
    n, c = protocol_sizes(protocol, f)
    return Point(
        protocol=protocol,
        f=f,
        clients=size["clients"],
        workload=KV(requests=size["requests"], batch=size["kv_batch"]),
        label=f"{protocol}/{topology}/{scenario.name}",
        topology=topology,
        block_batch=size["block_batch"],
        seed=seed,
        fault_plan=scenario.build_plan(protocol, n, f, c),
        config_overrides=CONFIG_OVERRIDES,
        max_sim_time=size["max_sim_time"],
        tags={"scenario": scenario.name},
        timeline_bucket=TIMELINE_BUCKET,
        fault_phase=(scenario.fault_start, scenario.fault_end),
    )


def grid(
    scale_name: str = "small",
    protocols: Sequence[str] = DEFAULT_PROTOCOLS,
    topologies: Sequence[str] = DEFAULT_TOPOLOGIES,
    scenarios: Optional[Sequence[str]] = None,
    seed: int = 0,
) -> List[Point]:
    """The sweep's ordered (protocol, topology, scenario) points."""
    size = harness.scale_entry(SWEEP_SCALES, scale_name)
    names = list(scenarios) if scenarios is not None else list(SCENARIOS)
    for name in names:
        if name not in SCENARIOS:
            raise ConfigurationError(
                f"unknown fault scenario {name!r} (known: {', '.join(SCENARIOS)})"
            )
    return [
        _point(protocol, topology, SCENARIOS[name], size, seed)
        for protocol in protocols
        for topology in topologies
        for name in names
    ]


def fault_row(point: Point, result: ClusterResult) -> Dict:
    """The row; ``faults_planned``/``faults_fired`` make a point whose
    workload finished before the scripted timeline (so faults never fired,
    and it measures nothing) visible."""
    run = result.run
    expected = point.clients * point.workload.requests
    fault_start, fault_end = point.fault_phase
    return result_row(
        result,
        faults_planned=result.faults_planned,
        faults_fired=result.faults_fired,
        protocol=point.protocol,
        topology=point.topology,
        scenario=point.tags["scenario"],
        f=point.f,
        n=point.n,
        clients=point.clients,
        completed_requests=run.completed_requests,
        expected_requests=expected,
        all_completed=run.completed_requests >= expected,
        recovered=bool(run.phases and run.phases["after"]["throughput_ops"] > 0),
        fault_start=fault_start,
        fault_end=fault_end,
        phases=run.phases,
        timeline=run.timeline.as_rows() if run.timeline is not None else [],
    )


#: Row keys shown in the CLI table (the timeline/phase payloads are too wide).
TABLE_COLUMNS = (
    "label",
    "scenario",
    "n",
    "throughput_ops",
    "mean_latency_ms",
    "completed_requests",
    "expected_requests",
    "recovered",
    "sim_seconds",
    "wall_seconds",
    "cpu_us_per_event",
)


def print_phases(args, points: List[Dict], rows: List[Dict]) -> int:
    """The CLI's second table: per-row before/during/after aggregates."""
    print()
    print("phase aggregates (before / during / after fault):")
    for row in rows:
        phases = row.get("phases") or {}
        parts = []
        for phase in ("before", "during", "after"):
            data = phases.get(phase)
            if data:
                parts.append(
                    f"{phase} {data['throughput_ops']:.0f} ops/s "
                    f"@ {data['mean_latency_ms']:.0f} ms"
                )
        print(f"  {row['label']}: " + "; ".join(parts))
    return 0


ROW_SCHEMA: Dict[str, str] = dict(
    COMMON_ROW_SCHEMA,
    topology="WAN latency model of this point",
    scenario="scripted fault timeline (see --scenarios for the choices)",
    clients="number of closed-loop clients at every sweep point",
    completed_requests="client requests acknowledged by the cluster",
    expected_requests="clients x requests_per_client at this scale",
    all_completed="every offered request was acknowledged despite the faults",
    recovered="the after-fault phase made throughput progress",
    fault_start="absolute simulation time the 'during' phase starts",
    fault_end="absolute simulation time the 'during' phase ends",
    faults_planned="fault actions in the scripted timeline",
    faults_fired="fault actions that actually activated during the run",
    phases="before/during/after-fault aggregate dict (JSON output only)",
    timeline="windowed throughput/latency buckets (JSON output only)",
)

SWEEP = harness.Sweep(
    group="fault-sweep",
    summary=__doc__.splitlines()[0],
    example="PYTHONPATH=src python -m repro.experiments.fault_sweep "
    "--scale small --output BENCH_fault_sweep.json",
    row_schema=ROW_SCHEMA,
    grid=grid,
    row=fault_row,
    scales=tuple(SWEEP_SCALES),
    table_columns=TABLE_COLUMNS,
    axes={
        "protocols": dict(nargs="+"),
        "topologies": dict(nargs="+"),
        "scenarios": dict(nargs="+", choices=sorted(SCENARIOS)),
    },
    report=print_phases,
)


if __name__ == "__main__":
    sys.exit(harness.main(SWEEP))
