"""The smart-contract benchmark (Section IX, "Smart-Contract benchmark evaluation").

The paper replays 500k Ethereum transactions (12 KB client chunks, ~50
transactions each) against SBFT and scale-optimized PBFT on two topologies and
reports:

* continent-scale WAN: SBFT 378 tx/s @ 254 ms vs PBFT 204 tx/s @ 538 ms,
* world-scale WAN:     SBFT 172 tx/s @ 622 ms vs PBFT  98 tx/s @ 934 ms,
* an unreplicated single-machine baseline of 840 tx/s.

:func:`grid` reproduces the table structure with the synthetic
Ethereum-like workload: one row per (protocol, topology, f) point carrying
both the simulated metrics *and* the host cost (wall/CPU seconds, wall/CPU
microseconds per simulated event) that the EVM pre-decode and the
deployment-shared execution cache target.  Every point builds its own
cluster and therefore starts from a cold execution cache, so the recorded
cost is the reproducible first-execution-plus-(n-1)-replays path.  The
sweep's report adds :func:`single_node_baseline`, the unreplicated
execution rate implied by the same cost model, and the paper's "replication
slowdown" per row (:func:`slowdown_vs_baseline`).

:mod:`repro.experiments.harness` owns the CLI (``--help`` prints the
row schema)::

    PYTHONPATH=src python -m repro.experiments.smart_contracts \
        --scale small --output BENCH_smart_contracts.json
    PYTHONPATH=src python -m repro.experiments.smart_contracts \
        --scale small --jobs 2 --check-against BENCH_smart_contracts.json

``BENCH_smart_contracts.json`` at the repo root is the committed baseline; CI
runs the second form: every seed-determined row key must equal it.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments import harness
from repro.experiments.harness import COMMON_ROW_SCHEMA, Ethereum, Point, result_row
from repro.protocols.cluster import ClusterResult
from repro.services.ledger import LedgerService, ledger_operation
from repro.workloads.ethereum_workload import SyntheticTrace

#: Sweep grids per scale: replication factors, stream length and client count.
#: ``f`` translates to ``n = 3f + 1`` (PBFT) or ``n = 3f + 2c + 1`` (SBFT with
#: redundant servers, ``c = max(1, f // 8)``: ``registry.protocol_sizes``).
SWEEP_F_VALUES: Dict[str, Sequence[int]] = {
    "small": (2, 4),
    "medium": (4, 8),
    "paper": (16, 64),
}
SWEEP_NUM_TRANSACTIONS: Dict[str, int] = {
    "small": 600,
    "medium": 1500,
    "paper": 2000,
}
SWEEP_TOPOLOGIES: Tuple[str, ...] = ("continent", "world")
SWEEP_PROTOCOLS: Tuple[str, ...] = ("sbft-c8", "pbft")
SWEEP_NUM_CLIENTS = 8
SWEEP_BLOCK_BATCH = 4
SWEEP_MAX_SIM_TIME = 600.0


def single_node_baseline(num_transactions: int = 1_000, seed: int = 7) -> Dict[str, float]:
    """Unreplicated baseline: execute the trace on one ledger, no replication.

    Throughput is computed against the same execution cost model the replicas
    use (``LedgerService.transaction_cost``: the gas each transaction burned),
    i.e. the simulated seconds a single CPU would need.
    """
    trace = SyntheticTrace(num_transactions=num_transactions, seed=seed)
    ledger = LedgerService()
    trace.genesis(ledger)
    total_cost = 0.0
    executed = 0
    for tx in trace.transactions():
        operation = ledger_operation(tx)
        total_cost += ledger.transaction_cost(operation, ledger.execute(operation))
        executed += 1
    throughput = executed / total_cost if total_cost > 0 else 0.0
    return {
        "label": "single-node baseline",
        "transactions": executed,
        "throughput_tps": round(throughput, 1),
        "cpu_seconds": round(total_cost, 4),
    }


def grid(
    scale_name: str = "small",
    protocols: Sequence[str] = SWEEP_PROTOCOLS,
    topologies: Sequence[str] = SWEEP_TOPOLOGIES,
    f_values: Optional[Sequence[int]] = None,
    num_transactions: Optional[int] = None,
    clients: int = SWEEP_NUM_CLIENTS,
    block_batch: int = SWEEP_BLOCK_BATCH,
    seed: int = 0,
) -> List[Point]:
    """The sweep's ordered (f, topology, protocol) points."""
    scale_f_values = harness.scale_entry(SWEEP_F_VALUES, scale_name)
    if num_transactions is None:
        num_transactions = SWEEP_NUM_TRANSACTIONS[scale_name]
    return [
        Point(protocol=protocol, f=f, clients=clients, workload=Ethereum(num_transactions),
              label=f"{protocol}/{topology}/f={f}", topology=topology, block_batch=block_batch,
              seed=seed, max_sim_time=SWEEP_MAX_SIM_TIME)
        for f in (scale_f_values if f_values is None else f_values)
        for topology in topologies
        for protocol in protocols
    ]


def contract_row(point: Point, result: ClusterResult) -> Dict:
    return result_row(
        result,
        protocol=point.protocol,
        topology=point.topology,
        f=point.f,
        n=point.n,
        clients=point.clients,
        transactions=result.completed_operations,
        throughput_tps=round(result.throughput, 1),
    )


def slowdown_vs_baseline(baseline: Dict, rows: List[Dict]) -> Dict[str, float]:
    """The paper's "replication slowdown relative to the baseline" per row label."""
    return {
        row["label"]: round(baseline["throughput_tps"] / row["throughput_tps"], 2)
        for row in rows
        if row["throughput_tps"] > 0
    }


def print_slowdowns(args, points: List[Dict], rows: List[Dict]) -> int:
    """The CLI's second table: the unreplicated baseline and each row's slowdown."""
    baseline = single_node_baseline()
    print()
    print(f"{baseline['label']}: {baseline['throughput_tps']} tx/s "
          f"over {baseline['transactions']} transactions")
    print("replication slowdown vs the baseline (paper: 2x continent, 5x world):")
    for label, slowdown in slowdown_vs_baseline(baseline, rows).items():
        print(f"  {label:<28} {slowdown}x")
    return 0


ROW_SCHEMA: Dict[str, str] = dict(
    COMMON_ROW_SCHEMA,
    topology="WAN latency model of this point ('continent' or 'world')",
    clients="number of closed-loop clients at every sweep point",
    transactions="Ethereum-style transactions executed and acknowledged",
    throughput_tps="simulated transactions per second",
)

SWEEP = harness.Sweep(
    group="smart-contracts",
    summary=__doc__.splitlines()[0],
    example="PYTHONPATH=src python -m repro.experiments.smart_contracts "
    "--scale small --output BENCH_smart_contracts.json",
    row_schema=ROW_SCHEMA,
    grid=grid,
    row=contract_row,
    scales=tuple(SWEEP_F_VALUES),
    axes={
        "protocols": dict(nargs="+"),
        "topologies": dict(nargs="+"),
        "clients": dict(type=int),
        "block_batch": dict(type=int),
    },
    report=print_slowdowns,
)


if __name__ == "__main__":
    sys.exit(harness.main(SWEEP))
