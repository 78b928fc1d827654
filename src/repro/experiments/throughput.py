"""Throughput grid — Figures 2/3, the ablation, the scale column, the client axis and Section IX.

Section IX measures one thing: how fast a protocol goes at some replica
count, client count, failure count, request batch, batching policy, workload
and topology.  This sweep runs that measurement as one grid.  A scale is an
ordered list of :class:`Panel` s, each one product of axis tuples with the
settings its points share, and :func:`grid` concatenates their products:

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

:func:`throughput_series`, :func:`latency_curves` and :func:`select` project
the rows onto one figure panel, the ablation or a column.
:mod:`repro.experiments.harness` owns the CLI, where ``--panels`` names the
panels to run (all by default); ``BENCH_throughput.json`` is the committed
``small`` baseline and the second form below its gate::

    PYTHONPATH=src python -m repro.experiments.throughput --scale small --jobs 2 \
        --output BENCH_throughput.json
    PYTHONPATH=src python -m repro.experiments.throughput --scale small --jobs 2 \
        --check-against BENCH_throughput.json
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

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
class Panel:
    """One product of axes and the settings its points share.

    The axes are ``f`` × ``workloads`` × ``failures`` (crashed backups, from
    the start of the run) × ``topologies`` × ``protocols`` × ``policies`` ×
    ``clients``, in that nesting order.  A :class:`~repro.experiments.harness.KV`
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
    failures: Tuple[int, ...] = (0,)
    policies: Tuple[str, ...] = ("fixed",)
    topologies: Tuple[str, ...] = ("continent",)
    block_batch: int = 8
    max_outstanding: int = 1
    max_sim_time: float = 600.0
    overrides: Dict[str, Any] = field(default_factory=dict)

    def points(self, seed: int = 0) -> List[Point]:
        """The panel's ordered product; a label is
        ``panel/protocol/f=F/batch=B|tx=T/fail=K/policy/clients=C/topology``."""
        loads = [(f"batch={load.batch}" if isinstance(load, KV) else f"tx={load.transactions}",
                  load) for load in self.workloads]
        return [
            Point(
                protocol=protocol,
                f=f,
                clients=clients,
                workload=load,
                label=f"{self.name}/{protocol}/f={f}/{load_name}/fail={failures}/{policy}"
                f"/clients={clients}/{topology}",
                topology=topology,
                block_batch=self.block_batch,
                seed=seed,
                fault_plan=FaultPlan.crash_backups(failures, protocol_sizes(protocol, f)[0]),
                config_overrides=dict(self.overrides, batch_policy=policy,
                                      client_max_outstanding=self.max_outstanding),
                max_sim_time=self.max_sim_time,
                tags={"panel": self.name},
            )
            for f in self.f
            for load_name, load in loads
            for failures in self.failures
            for topology in self.topologies
            for protocol in self.protocols
            for policy in self.policies
            for clients in self.clients
        ]


#: The ``small`` panels (the committed baseline's grid).  ``figures`` crashes
#: 0, f/8 (at least one) and f backups.  The client ladder's top rung must
#: saturate the primary so adaptive batching has a queue to drain: the
#: 64-client rung (primary message core 57 % busy under ``fixed``) is below
#: that knee, so the ladder goes on to 256.
FIGURES = Panel("figures", PAPER_ORDER, f=(2,), clients=(4, 16, 32),
                workloads=(KV(requests=4, batch=64), KV(requests=4, batch=1)),
                failures=(0, 1, 2), max_sim_time=240.0)
SCALE_COLUMN = Panel("scale", ("sbft-c0",), f=(1, 2, 4, 8), clients=(16,),
                     workloads=(KV(requests=4, batch=8),), block_batch=16)
CLIENT_LADDER = Panel("clients", ("sbft-c0", "pbft"), f=(1,), clients=(4, 16, 64, 256),
                      workloads=(KV(requests=8, batch=4),), policies=POLICIES, max_outstanding=4,
                      max_sim_time=240.0, overrides=CONFIG_OVERRIDES)
CONTRACTS = Panel("contracts", ("sbft-c8", "pbft"), f=(2, 4), clients=(8,),
                  workloads=(Ethereum(transactions=600),), topologies=("continent", "world"),
                  block_batch=4)

#: Each scale's panels, in grid order; ``paper`` reaches f=64 (n=209 for
#: ``sbft-c8``, the paper's deployment).
SCALES: Dict[str, Tuple[Panel, ...]] = {
    "small": (FIGURES, SCALE_COLUMN, CLIENT_LADDER, CONTRACTS),
    "medium": (
        replace(FIGURES, f=(8,), clients=(4, 32, 64, 128), failures=(0, 1, 8), block_batch=16,
                max_sim_time=600.0),
        replace(SCALE_COLUMN, f=(1, 2, 4, 8, 16)),
        replace(CLIENT_LADDER, f=(4,), clients=(8, 32, 128), max_sim_time=480.0),
        replace(CONTRACTS, f=(4, 8), workloads=(Ethereum(transactions=1500),)),
    ),
    "paper": (
        replace(FIGURES, f=(64,), clients=(4, 32, 64, 128, 192, 256), failures=(0, 8, 64),
                workloads=(KV(requests=16, batch=64), KV(requests=16, batch=1)), block_batch=16,
                max_sim_time=3600.0),
        replace(SCALE_COLUMN, f=(1, 4, 16, 32, 64)),
        replace(CLIENT_LADDER, f=(16,), clients=(16, 64, 256), workloads=(KV(requests=8, batch=8),),
                block_batch=16, max_outstanding=8, max_sim_time=1200.0),
        replace(CONTRACTS, f=(16, 64), workloads=(Ethereum(transactions=2000),)),
    ),
}


def panel(scale_name: str, name: str) -> Panel:
    """The panel ``name`` of a scale; an unknown name raises."""
    panels = {entry.name: entry for entry in harness.scale_entry(SCALES, scale_name)}
    return harness.scale_entry(panels, name, "panel")


def grid(scale_name: str = "small", seed: int = 0, panels: Optional[Sequence[str]] = None,
         kv_batch: Optional[Sequence[int]] = None, **axes: Optional[Sequence]) -> List[Point]:
    """The points of the scale's panels, or of the ``panels`` named, in that
    order.  Each other given axis replaces that axis of every panel run;
    ``kv_batch`` replaces the batch of every KV workload."""
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
        points += entry.points(seed)
    return points


def throughput_row(point: Point, result: ClusterResult) -> Dict:
    """One row, whatever the panel: every row carries every panel's keys."""
    stats = result.replica_stats.values()
    # Any non-crashed replica executed every block; the max is robust to
    # laggards that were still catching up when the last client finished.
    blocks = max(replica["blocks_executed"] for replica in stats)
    completed = result.run.completed_requests
    kv = isinstance(point.workload, KV)
    expected = point.clients * point.workload.requests if kv else None
    return result_row(
        result,
        panel=point.tags["panel"],
        protocol=point.protocol,
        f=point.f,
        n=point.n,
        topology=point.topology,
        clients=point.clients,
        kv_batch=point.workload.batch if kv else None,
        failures=result.faults_planned,
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


def print_section_ix(args, points: List[Point], rows: List[Dict]) -> int:
    """The CLI's second table, under a grid with contracts rows: the
    unreplicated baseline and each contracts row's slowdown."""
    if not select(rows, "contracts"):
        return 0
    baseline = single_node_baseline()
    print(f"\n{baseline['label']}: {baseline['throughput_ops']} tx/s over "
          f"{baseline['completed_operations']} transactions")
    print("replication slowdown vs the baseline (paper: 2x continent, 5x world):")
    for label, slowdown in slowdown_vs_baseline(baseline, rows).items():
        print(f"  {label:<64} {slowdown}x")
    return 0


ROW_SCHEMA: Dict[str, str] = dict(
    COMMON_ROW_SCHEMA,
    panel="the scale's panel this point belongs to (figures, scale, clients, contracts)",
    topology="WAN latency model of this point",
    clients="number of closed-loop clients at this point",
    kv_batch="puts per KV client request (the paper's 'batch=64' / 'no batch': 64 / 1); "
    "null on the Ethereum workload",
    failures="backups crashed from the start of the run",
    policy="batch policy of this point: 'fixed' or 'adaptive'",
    max_outstanding="requests each client keeps in flight concurrently",
    completed_requests="client requests acknowledged by the cluster",
    expected_requests="clients x requests per client (null on the Ethereum workload)",
    all_completed="every offered request (every transaction) was acknowledged",
    blocks_executed="decision blocks executed (max over replicas)",
    requests_per_block="completed_requests / blocks_executed (batching evidence)",
    fast_blocks="blocks committed on the fast path, summed over replicas",
    slow_blocks="blocks committed on the slow path, summed over replicas",
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
                   "slow_blocks", "requests_per_block", "all_completed", "wall_seconds",
                   "cpu_us_per_event"),
    axes={
        "panels": dict(nargs="+", choices=[entry.name for entry in SCALES["small"]],
                       help="run only these panels (default: all)"),
        "protocols": dict(nargs="+"),
        "clients": dict(nargs="+", type=int, help="replace every panel's client counts"),
        "kv_batch": dict(nargs="+", type=int, help="replace every KV workload's puts per request"),
        "failures": dict(nargs="+", type=int,
                         help="replace every panel's crashed-backup counts (more than a "
                         "panel's f stalls its runs: pick the panels with --panels)"),
        "policies": dict(nargs="+", choices=POLICIES),
        "topologies": dict(nargs="+"),
    },
    report=print_section_ix,
)


if __name__ == "__main__":
    sys.exit(harness.main(SWEEP))
