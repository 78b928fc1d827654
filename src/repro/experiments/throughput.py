"""Throughput grid — every fixed grid of cluster points: Sections VIII, IX and V-G.

Section IX measures one thing: how fast a protocol goes at some replica
count, client count, fault, request batch, batching policy, workload and
topology.  Section VIII and the Section V-G view-change study measure the
same under a scripted fault timeline.  This sweep runs them all as one grid.
A scale is an ordered list of :class:`Panel` s, each one product of axis
tuples with the settings its points share, and :func:`grid` concatenates
their products:

* ``figures`` — the paper's Figure 2 (throughput vs clients, one panel per
  KV batch and failure count: 0, f/8 and f crashed backups) and Figure 3
  (the same runs, latency vs throughput).  Its rows at one client count and
  failures (0, f/8) are the per-ingredient ablation: every row carries its
  fast- and slow-path block commits, and
  :data:`repro.protocols.registry.PROTOCOLS` names the ingredient each
  variant adds.
* ``scale`` — one point per replication factor at a fixed client count: the
  scale column (n=4 to 25 at ``small``, to 193 at ``paper``).
* ``clients`` — pipelined clients (``client_max_outstanding`` in flight)
  under fixed vs adaptive batching, up the client ladder: at the top rung
  the primary saturates and adaptive blocks drain its queue.
* ``contracts`` — the Ethereum-like workload on the continent and world WANs:
  the smart-contract table, with :func:`single_node_baseline` and the
  replication slowdown (:func:`slowdown_vs_baseline`) as its last column.
* ``faults`` — Section VIII, performance under failure: ``sbft-c0``,
  ``sbft-c8`` and ``pbft`` under each scripted timeline of
  :data:`SCENARIOS` (all times absolute, in simulated seconds).  Rows carry
  a windowed ``timeline`` and before/during/after-fault ``phases``
  (docs/benchmarks.md), so the fast path's fallback and a view change's
  recovery show as data:

  - ``crash-backups`` — f backups crash at 1 s and stay down; the cluster
    falls back to the linear-PBFT path and keeps committing;
  - ``slow-stragglers`` — f backups become 8x stragglers at 1 s and heal at 3 s;
  - ``faulty-primary`` — the primary crashes at 1 s while the last backup
    spreads stale view-change messages; a view change recovers liveness;
  - ``partition-heal`` — f backups are partitioned away at 1 s and the
    partition heals at 3 s; the minority catches up;
  - ``crash-restart`` — f backups crash at 1 s, restart at 3 s and re-sync
    through checkpoints and state transfer.
* ``primary`` — the view-change study (Section V-G, footnote 3) in
  miniature: one point each of a primary that crashes, goes silent or
  equivocates from the start (:data:`PRIMARY_FAULTS`); ``max_view`` > 0 says
  a view change happened.  It is the same at every scale.

:func:`throughput_series`, :func:`latency_curves`, :func:`select` and
:func:`summarize` project the rows onto one figure panel, the ablation, a
column or the per-fault summary.  :mod:`repro.experiments.harness` owns the
CLI, where ``--panels`` names the panels to run (all by default); the report
exits 1 if a scripted-fault point lost liveness.  ``BENCH_throughput.json``
is the committed ``small`` baseline and the second form below its gate::

    PYTHONPATH=src python -m repro.experiments.throughput --scale small --jobs 2 \
        --output BENCH_throughput.json
    PYTHONPATH=src python -m repro.experiments.throughput --scale small --jobs 2 \
        --check-against BENCH_throughput.json
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, replace
from itertools import product
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.adversary.behaviours import equivocate, silent, stale_view_change
from repro.experiments import harness
from repro.experiments.harness import COMMON_ROW_SCHEMA, KV, Ethereum, Point, result_row
from repro.protocols.cluster import ClusterResult
from repro.protocols.registry import PAPER_ORDER, protocol_sizes
from repro.services.ledger import LedgerService, ledger_operation
from repro.sim.faults import FaultPlan
from repro.workloads.ethereum_workload import SyntheticTrace

#: Batching policies of the ``policies`` axis.
POLICIES: Tuple[str, ...] = ("fixed", "adaptive")

#: The ``clients`` panel's timer overrides: short enough that batching, not
#: timer slack, decides the measured throughput.
CONFIG_OVERRIDES = {
    "fast_path_timeout": 0.05,
    "batch_timeout": 0.01,
    "view_change_timeout": 2.0,
    "client_retry_timeout": 3.0,
}


@dataclass(frozen=True)
class FaultScenario:
    """A named scripted fault timeline, one kind of ``faults`` axis value.

    ``build_plan`` maps a point's ``(n, f)`` to its :class:`FaultPlan`.
    ``phase`` is None or the absolute ``(fault_start, fault_end)`` simulation
    times bounding the *during* phase, for the before/during/after
    aggregates: ``fault_end`` is when the recovery action (heal, restart)
    fires for a transient fault, and when the degraded steady state should
    have settled for a permanent one.  A point whose fault has a phase also
    records a :data:`TIMELINE_BUCKET`-windowed timeline.
    """

    name: str
    build_plan: Callable[[int, int], FaultPlan]
    phase: Optional[Tuple[float, float]] = None


#: Window (simulated seconds) of a phased fault point's ``timeline`` buckets.
TIMELINE_BUCKET = 0.25


def _crash_backups_plan(n: int, f: int) -> FaultPlan:
    return FaultPlan.crash_backups(f, n, at_time=1.0)


def _slow_stragglers_plan(n: int, f: int) -> FaultPlan:
    stragglers = list(range(n - f, n))
    plan = FaultPlan.slow(stragglers, factor=8.0, at_time=1.0)
    return plan.extend(FaultPlan.heal(stragglers, at_time=3.0))


def _faulty_primary_plan(n: int, f: int) -> FaultPlan:
    # One backup (never the next primary, replica 1) also spreads stale
    # view-change messages; the dual-mode view change (and PBFT's) must
    # tolerate its empty evidence.
    plan = FaultPlan.crash_first(1, at_time=1.0)
    return plan.extend(FaultPlan.byzantine([n - 1], stale_view_change, at_time=0.0))


def _partition_heal_plan(n: int, f: int) -> FaultPlan:
    minority = list(range(n - f, n))
    plan = FaultPlan.partition(minority, n, at_time=1.0)
    return plan.extend(FaultPlan.heal(minority, at_time=3.0))


def _crash_restart_plan(n: int, f: int) -> FaultPlan:
    crashed = list(range(n - f, n))
    plan = FaultPlan.crash_first(f, node_ids=crashed, at_time=1.0)
    return plan.extend(FaultPlan.restart(crashed, at_time=3.0))


#: The ``faults`` panel's Section VIII timelines.
SCENARIOS: Tuple[FaultScenario, ...] = (
    FaultScenario("crash-backups", _crash_backups_plan, phase=(1.0, 2.0)),
    FaultScenario("slow-stragglers", _slow_stragglers_plan, phase=(1.0, 3.0)),
    FaultScenario("faulty-primary", _faulty_primary_plan, phase=(1.0, 2.5)),
    FaultScenario("partition-heal", _partition_heal_plan, phase=(1.0, 3.0)),
    FaultScenario("crash-restart", _crash_restart_plan, phase=(1.0, 3.0)),
)

#: The ``primary`` panel's faults: the primary crashes, or runs a byzantine
#: behaviour, from the start of the run.
PRIMARY_FAULTS: Tuple[FaultScenario, ...] = (
    FaultScenario("crash", lambda n, f: FaultPlan.crash_first(1, at_time=0.0)),
    FaultScenario("silent", lambda n, f: FaultPlan.byzantine([0], silent, at_time=0.0)),
    FaultScenario("equivocate", lambda n, f: FaultPlan.byzantine([0], equivocate, at_time=0.0)),
)


@dataclass(frozen=True)
class Panel:
    """One product of axes and the settings its points share.

    The axes are ``f`` × ``workloads`` × ``faults`` × ``topologies`` ×
    ``protocols`` × ``policies`` × ``clients``, in that nesting order.  A
    fault is an ``int`` K, K backups crashed from the start of the run, or a
    :class:`FaultScenario`.  A :class:`~repro.experiments.harness.KV`
    workload sends ``requests`` requests of ``batch`` puts per client, an
    :class:`~repro.experiments.harness.Ethereum` one ``transactions``
    transactions shared by the clients.  ``block_batch`` is the minimum
    client requests per block, ``max_outstanding`` each client's pipelined
    requests in flight.
    """

    name: str
    protocols: Tuple[str, ...]
    f: Tuple[int, ...]
    clients: Tuple[int, ...]
    workloads: Tuple[Union[KV, Ethereum], ...]
    faults: Tuple[Union[int, FaultScenario], ...] = (0,)
    policies: Tuple[str, ...] = ("fixed",)
    topologies: Tuple[str, ...] = ("continent",)
    block_batch: int = 8
    max_outstanding: int = 1
    max_sim_time: float = 600.0
    overrides: Dict[str, Any] = field(default_factory=dict)

    def points(self, seed: int = 0) -> List[Point]:
        """The panel's ordered product; a label is
        ``panel/protocol/f=F/batch=B|tx=T/fail=K|scenario/policy/clients=C/topology``."""
        points = []
        for f, load, fault, topology, protocol, policy, clients in product(
                self.f, self.workloads, self.faults, self.topologies, self.protocols,
                self.policies, self.clients):
            n = protocol_sizes(protocol, f)[0]
            scripted = isinstance(fault, FaultScenario)
            load_name = f"batch={load.batch}" if isinstance(load, KV) else f"tx={load.transactions}"
            fault_name = fault.name if scripted else f"fail={fault}"
            points.append(Point(
                protocol=protocol,
                f=f,
                clients=clients,
                workload=load,
                label=f"{self.name}/{protocol}/f={f}/{load_name}/{fault_name}/{policy}"
                f"/clients={clients}/{topology}",
                topology=topology,
                block_batch=self.block_batch,
                seed=seed,
                fault_plan=(fault.build_plan(n, f) if scripted
                            else FaultPlan.crash_backups(fault, n)),
                config_overrides=dict(self.overrides, batch_policy=policy,
                                      client_max_outstanding=self.max_outstanding),
                max_sim_time=self.max_sim_time,
                tags={"panel": self.name, "fault": fault.name if scripted else None},
                timeline_bucket=TIMELINE_BUCKET if scripted and fault.phase else None,
                fault_phase=fault.phase if scripted else None,
            ))
        return points


#: The ``small`` panels (the committed baseline's grid).  ``figures`` crashes
#: 0, f/8 (at least one) and f backups.  The client ladder's top rung must
#: saturate the primary so adaptive batching has a queue to drain: the
#: 64-client rung (primary message core 57 % busy under ``fixed``) is below
#: that knee, so the ladder goes on to 256.  ``faults`` runs its timers
#: short enough that fallback, view change and client retry all happen
#: within the timelines, and enough requests to keep every point busy past
#: the latest ``fault_end`` (3 s), so that heal and restart fire and the
#: *after* phase has data even where the faults cost least (PBFT barely
#: notices f crashed backups).
FIGURES = Panel("figures", PAPER_ORDER, f=(2,), clients=(4, 16, 32),
                workloads=(KV(requests=4, batch=64), KV(requests=4, batch=1)),
                faults=(0, 1, 2), max_sim_time=240.0)
SCALE_COLUMN = Panel("scale", ("sbft-c0",), f=(1, 2, 4, 8), clients=(16,),
                     workloads=(KV(requests=4, batch=8),), block_batch=16)
CLIENT_LADDER = Panel("clients", ("sbft-c0", "pbft"), f=(1,), clients=(4, 16, 64, 256),
                      workloads=(KV(requests=8, batch=4),), policies=POLICIES, max_outstanding=4,
                      max_sim_time=240.0, overrides=CONFIG_OVERRIDES)
CONTRACTS = Panel("contracts", ("sbft-c8", "pbft"), f=(2, 4), clients=(8,),
                  workloads=(Ethereum(transactions=600),), topologies=("continent", "world"),
                  block_batch=4)
FAULTS = Panel("faults", ("sbft-c0", "sbft-c8", "pbft"), f=(1,), clients=(6,),
               workloads=(KV(requests=32, batch=4),), faults=SCENARIOS, block_batch=4,
               max_sim_time=120.0,
               overrides={"fast_path_timeout": 0.05, "batch_timeout": 0.01,
                          "view_change_timeout": 1.0, "client_retry_timeout": 1.5,
                          "checkpoint_interval": 8})
PRIMARY = Panel("primary", ("sbft-c0",), f=(1,), clients=(2,), workloads=(KV(requests=4, batch=2),),
                faults=PRIMARY_FAULTS, topologies=("lan",), block_batch=2, max_sim_time=120.0,
                overrides={"view_change_timeout": 1.0, "client_retry_timeout": 1.5})

#: Each scale's panels, in grid order; ``paper`` reaches f=64 (n=209 for
#: ``sbft-c8``, the paper's deployment).  ``primary`` is the same at every scale.
SCALES: Dict[str, Tuple[Panel, ...]] = {
    "small": (FIGURES, SCALE_COLUMN, CLIENT_LADDER, CONTRACTS, FAULTS, PRIMARY),
    "medium": (
        replace(FIGURES, f=(8,), clients=(4, 32, 64, 128), faults=(0, 1, 8), block_batch=16,
                max_sim_time=600.0),
        replace(SCALE_COLUMN, f=(1, 2, 4, 8, 16)),
        replace(CLIENT_LADDER, f=(4,), clients=(8, 32, 128), max_sim_time=480.0),
        replace(CONTRACTS, f=(4, 8), workloads=(Ethereum(transactions=1500),)),
        replace(FAULTS, f=(2,), clients=(8,), workloads=(KV(requests=40, batch=4),),
                block_batch=8, max_sim_time=240.0),
        PRIMARY,
    ),
    "paper": (
        replace(FIGURES, f=(64,), clients=(4, 32, 64, 128, 192, 256), faults=(0, 8, 64),
                workloads=(KV(requests=16, batch=64), KV(requests=16, batch=1)), block_batch=16,
                max_sim_time=3600.0),
        replace(SCALE_COLUMN, f=(1, 4, 16, 32, 64)),
        replace(CLIENT_LADDER, f=(16,), clients=(16, 64, 256), workloads=(KV(requests=8, batch=8),),
                block_batch=16, max_outstanding=8, max_sim_time=1200.0),
        replace(CONTRACTS, f=(16, 64), workloads=(Ethereum(transactions=2000),)),
        replace(FAULTS, f=(4,), clients=(16,), workloads=(KV(requests=48, batch=8),),
                block_batch=8, max_sim_time=600.0),
        PRIMARY,
    ),
}


def panel(scale_name: str, name: str) -> Panel:
    """The panel ``name`` of a scale; an unknown name raises."""
    panels = {entry.name: entry for entry in harness.scale_entry(SCALES, scale_name)}
    return harness.scale_entry(panels, name, "panel")


def grid(scale_name: str = "small", seed: int = 0, panels: Optional[Sequence[str]] = None,
         kv_batch: Optional[Sequence[int]] = None, failures: Optional[Sequence[int]] = None,
         **axes: Optional[Sequence]) -> List[Point]:
    """The points of the scale's panels, or of the ``panels`` named, in that
    order.  Each other given axis replaces that axis of every panel run;
    ``kv_batch`` replaces the batch of every KV workload and ``failures``
    every crashed-backup count, leaving the scripted timelines as they are."""
    given = {axis: tuple(values) for axis, values in axes.items() if values is not None}
    entries = (harness.scale_entry(SCALES, scale_name) if panels is None
               else [panel(scale_name, name) for name in panels])
    points = []
    for entry in entries:
        entry = replace(entry, **given)
        if kv_batch is not None:
            entry = replace(entry, workloads=tuple(dict.fromkeys(
                replace(load, batch=batch) if isinstance(load, KV) else load
                for load in entry.workloads for batch in kv_batch)))
        if failures is not None:
            entry = replace(entry, faults=tuple(dict.fromkeys(
                count if isinstance(fault, int) else fault
                for fault in entry.faults for count in failures)))
        points += entry.points(seed)
    return points


def throughput_row(point: Point, result: ClusterResult) -> Dict:
    """One row, whatever the panel: every row carries every panel's keys,
    null where the point has no such thing (no phase, no timeline)."""
    run = result.run
    stats = result.replica_stats.values()
    # Any non-crashed replica executed every block; the max is robust to
    # laggards that were still catching up when the last client finished.
    blocks = max(replica["blocks_executed"] for replica in stats)
    completed = run.completed_requests
    kv = isinstance(point.workload, KV)
    expected = point.clients * point.workload.requests if kv else None
    fault = point.tags["fault"]
    fault_start, fault_end = point.fault_phase or (None, None)
    return result_row(
        result,
        panel=point.tags["panel"],
        protocol=point.protocol,
        f=point.f,
        n=point.n,
        topology=point.topology,
        clients=point.clients,
        seed=point.seed,
        kv_batch=point.workload.batch if kv else None,
        failures=None if fault else result.faults_planned,
        fault=fault,
        policy=point.config_overrides["batch_policy"],
        max_outstanding=point.config_overrides["client_max_outstanding"],
        completed_requests=completed,
        expected_requests=expected,
        all_completed=(completed >= expected if kv
                       else result.completed_operations >= point.workload.transactions),
        blocks_executed=blocks,
        requests_per_block=round(completed / blocks, 2) if blocks else 0.0,
        fast_blocks=sum(replica.get("blocks_committed_fast", 0) for replica in stats),
        slow_blocks=sum(replica.get("blocks_committed_slow", 0) for replica in stats),
        max_view=result.max_view,
        view_changes=sum(replica.get("view_changes", 0) for replica in stats),
        faults_planned=result.faults_planned,
        faults_fired=result.faults_fired,
        fault_start=fault_start,
        fault_end=fault_end,
        recovered=run.phases["after"]["throughput_ops"] > 0 if run.phases else None,
        phases=run.phases,
        timeline=run.timeline.as_rows() if run.timeline is not None else None,
    )


def select(rows: List[Dict], panel_name: str, **keys: Any) -> List[Dict]:
    """The rows of panel ``panel_name`` whose ``keys`` have the given values, in grid order."""
    return [row for row in rows
            if row["panel"] == panel_name and all(row[key] == value for key, value in keys.items())]


def throughput_series(rows: List[Dict], kv_batch: int, failures: int,
                      key: str = "throughput_ops") -> Dict[str, List[float]]:
    """Figure 2's per-protocol series of ``key`` for one panel, in grid order."""
    series: Dict[str, List[float]] = {}
    for row in select(rows, "figures", kv_batch=kv_batch, failures=failures):
        series.setdefault(row["protocol"], []).append(row[key])
    return series


def latency_curves(rows: List[Dict], kv_batch: int, failures: int) -> Dict[str, List[Tuple]]:
    """Figure 3's per-protocol (throughput, mean latency ms) curves for one panel."""
    latency = throughput_series(rows, kv_batch, failures, key="mean_latency_ms")
    return {protocol: sorted(zip(series, latency[protocol]))
            for protocol, series in throughput_series(rows, kv_batch, failures).items()}


def single_node_baseline(num_transactions: int = 1_000, seed: int = 7) -> Dict[str, float]:
    """Unreplicated baseline: execute the trace on one ledger, no replication.

    Throughput is computed against the same execution cost model the replicas
    use (``LedgerService.transaction_cost``: the gas each transaction burned),
    i.e. the simulated seconds a single CPU would need.
    """
    trace = SyntheticTrace(num_transactions=num_transactions, seed=seed)
    ledger = LedgerService()
    trace.genesis(ledger)
    operations = [ledger_operation(tx) for tx in trace.transactions()]
    total_cost = sum(ledger.transaction_cost(operation, ledger.execute(operation))
                     for operation in operations)
    return {
        "label": "single-node baseline",
        "completed_operations": len(operations),
        "throughput_ops": round(len(operations) / total_cost if total_cost > 0 else 0.0, 1),
        "cpu_seconds": round(total_cost, 4),
    }


def slowdown_vs_baseline(baseline: Dict, rows: List[Dict]) -> Dict[str, float]:
    """The paper's "replication slowdown relative to the baseline" per contracts row."""
    return {row["label"]: round(baseline["throughput_ops"] / row["throughput_ops"], 2)
            for row in select(rows, "contracts") if row["throughput_ops"] > 0}


def summarize(rows: List[Dict]) -> Dict[str, Dict[str, float]]:
    """Per-fault points, success rate and mean view changes, in row order."""
    summary: Dict[str, Dict[str, float]] = {}
    for fault in dict.fromkeys(row["fault"] for row in rows):
        points = [row for row in rows if row["fault"] == fault]
        summary[fault] = {
            "points": len(points),
            "success_rate": sum(1 for row in points if row["all_completed"]) / len(points),
            "mean_view_changes": sum(row["view_changes"] for row in points) / len(points),
        }
    return summary


def report(args, points: List[Point], rows: List[Dict]) -> int:
    """What the CLI's table does not show: under contracts rows, the
    unreplicated baseline and each row's slowdown; under rows with phases,
    their before/during/after aggregates; under primary rows, the per-fault
    summary.  Exit status 1 if a scripted-fault point (``faults``,
    ``primary``) lost liveness: those panels exist to show that the cluster
    recovers, and every one of their points completes at every scale."""
    if select(rows, "contracts"):
        baseline = single_node_baseline()
        print(f"\n{baseline['label']}: {baseline['throughput_ops']} tx/s over "
              f"{baseline['completed_operations']} transactions")
        print("replication slowdown vs the baseline (paper: 2x continent, 5x world):")
        for label, slowdown in slowdown_vs_baseline(baseline, rows).items():
            print(f"  {label:<64} {slowdown}x")
    phased = [row for row in rows if row["phases"]]
    if phased:
        print("\nphase aggregates (before / during / after fault):")
        for row in phased:
            parts = [f"{phase} {data['throughput_ops']:.0f} ops/s "
                     f"@ {data['mean_latency_ms']:.0f} ms" for phase, data in row["phases"].items()]
            print(f"  {row['label']}: " + "; ".join(parts))
    if select(rows, "primary"):
        print("\nsummary per primary fault:")
        for fault, stats in summarize(select(rows, "primary")).items():
            print(f"  {fault:<12} success rate {stats['success_rate']:.0%}, "
                  f"mean view changes {stats['mean_view_changes']:.1f}")
    return 0 if all(row["all_completed"] for row in rows if row["fault"]) else 1


ROW_SCHEMA: Dict[str, str] = dict(
    COMMON_ROW_SCHEMA,
    panel="the scale's panel this point belongs to (figures, scale, clients, contracts, faults, "
    "primary)",
    topology="WAN latency model of this point",
    clients="number of closed-loop clients at this point",
    seed="fixed seed of this point (--seed)",
    kv_batch="puts per KV client request (the paper's 'batch=64' / 'no batch': 64 / 1); "
    "null on the Ethereum workload",
    failures="backups crashed from the start of the run; null under a scripted fault",
    fault="the scripted fault: a faults timeline, or how the primary misbehaves ('crash', "
    "'silent', 'equivocate'); null on a crashed-backups point",
    policy="batch policy of this point: 'fixed' or 'adaptive'",
    max_outstanding="requests each client keeps in flight concurrently",
    completed_requests="client requests acknowledged by the cluster",
    expected_requests="clients x requests per client (null on the Ethereum workload)",
    all_completed="every offered request (every transaction) was acknowledged (liveness)",
    blocks_executed="decision blocks executed (max over replicas)",
    requests_per_block="completed_requests / blocks_executed (batching evidence)",
    fast_blocks="blocks committed on the fast path, summed over replicas",
    slow_blocks="blocks committed on the slow path, summed over replicas",
    max_view="highest view a non-crashed replica ended in (> 0: a view change happened)",
    view_changes="view changes started, summed over replicas",
    faults_planned="fault actions in the point's fault plan",
    faults_fired="of those, the actions that activated during the run (fewer: the workload "
    "finished before the timeline, and the point measures nothing)",
    fault_start="absolute simulation time the 'during' phase starts (null without a phase)",
    fault_end="absolute simulation time the 'during' phase ends (null without a phase)",
    recovered="the after-fault phase made throughput progress (null without a phase)",
    phases="before/during/after-fault aggregate dict (JSON output only; null without a phase)",
    timeline="windowed throughput/latency buckets (JSON output only; null without a phase)",
    wall_us_per_message="host wall-clock microseconds per network message (not gated)",
)

SWEEP = harness.Sweep(
    group="throughput",
    summary=__doc__.splitlines()[0],
    example="PYTHONPATH=src python -m repro.experiments.throughput "
    "--scale small --jobs 2 --output BENCH_throughput.json",
    row_schema=ROW_SCHEMA,
    grid=grid,
    row=throughput_row,
    scales=tuple(SCALES),
    table_columns=("label", "n", "throughput_ops", "mean_latency_ms", "fast_blocks",
                   "slow_blocks", "requests_per_block", "all_completed", "max_view",
                   "wall_seconds", "cpu_us_per_event"),
    axes={
        "panels": dict(nargs="+", choices=[entry.name for entry in SCALES["small"]],
                       help="run only these panels (default: all)"),
        "protocols": dict(nargs="+"),
        "clients": dict(nargs="+", type=int, help="replace every panel's client counts"),
        "kv_batch": dict(nargs="+", type=int, help="replace every KV workload's puts per request"),
        "failures": dict(nargs="+", type=int,
                         help="replace every panel's crashed-backup counts, leaving scripted "
                         "faults as they are (more than a panel's f stalls its runs: pick the "
                         "panels with --panels)"),
        "policies": dict(nargs="+", choices=POLICIES),
        "topologies": dict(nargs="+"),
    },
    report=report,
)


if __name__ == "__main__":
    sys.exit(harness.main(SWEEP))
