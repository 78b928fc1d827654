"""The smart-contract benchmark (Section IX, "Smart-Contract benchmark evaluation").

The paper replays 500k Ethereum transactions (12 KB client chunks, ~50
transactions each) against SBFT and scale-optimized PBFT on two topologies and
reports:

* continent-scale WAN: SBFT 378 tx/s @ 254 ms vs PBFT 204 tx/s @ 538 ms,
* world-scale WAN:     SBFT 172 tx/s @ 622 ms vs PBFT  98 tx/s @ 934 ms,
* an unreplicated single-machine baseline of 840 tx/s.

:func:`run_smart_contract_benchmark` reproduces the table structure with the
synthetic Ethereum-like workload; :func:`single_node_baseline` measures the
unreplicated execution rate implied by the same cost model, so the
"replication slowdown" rows of the paper can be recomputed.

:func:`grid` gives the table the scale-sweep treatment: one row per
(protocol, topology, f) point carrying both the simulated metrics *and* the
host cost (wall/CPU seconds, wall/CPU microseconds per simulated event) that
the EVM pre-decode and the deployment-shared execution cache target.  Every
point builds its own cluster and therefore starts from a cold execution cache,
so the recorded cost is the reproducible first-execution-plus-(n-1)-replays
path.  :mod:`repro.experiments.harness` owns the CLI (``--help`` prints the
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
from repro.experiments.harness import COMMON_ROW_SCHEMA, protocol_sizes, result_row
from repro.protocols.cluster import ClusterResult, build_cluster
from repro.services.ledger import LedgerService, ledger_operation
from repro.workloads.ethereum_workload import EthereumWorkload, SyntheticTrace

#: Sweep grids per scale: replication factors, stream length and client count.
#: ``f`` translates to ``n = 3f + 1`` (PBFT) or ``n = 3f + 2c + 1`` (SBFT with
#: redundant servers, ``c = max(1, f // 8)`` as in the scale sweep).
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
    use, i.e. the simulated seconds a single CPU would need.
    """
    trace = SyntheticTrace(num_transactions=num_transactions, seed=seed)
    ledger = LedgerService()
    trace.genesis(ledger)
    total_cost = 0.0
    executed = 0
    for tx in trace.transactions():
        operation = ledger_operation(tx)
        total_cost += ledger.execution_cost(operation)
        ledger.execute(operation)
        executed += 1
    throughput = executed / total_cost if total_cost > 0 else 0.0
    return {
        "label": "single-node baseline",
        "transactions": executed,
        "throughput_tps": round(throughput, 1),
        "cpu_seconds": round(total_cost, 4),
    }


def run_contract_point(
    protocol: str,
    topology: str,
    f: int,
    c: Optional[int],
    num_clients: int,
    num_transactions: int,
    block_batch: int,
    seed: int,
    max_sim_time: float,
    label: str,
):
    """Run one replicated smart-contract point; returns a ClusterResult.

    Public so the determinism sanitizer (`repro.analysis.sanitizer`) can
    replay a fixed-seed contract point.
    """
    cluster = build_cluster(
        protocol,
        f=f,
        c=c,
        num_clients=num_clients,
        topology=topology,
        batch_size=block_batch,
        seed=seed,
    )
    workload = EthereumWorkload(
        num_transactions=num_transactions,
        num_accounts=100,
        num_clients=num_clients,
        seed=7,
    )
    return cluster.run(workload, max_sim_time=max_sim_time, label=label)


def grid(
    scale_name: str = "small",
    protocols: Sequence[str] = SWEEP_PROTOCOLS,
    topologies: Sequence[str] = SWEEP_TOPOLOGIES,
    f_values: Optional[Sequence[int]] = None,
    num_transactions: Optional[int] = None,
    clients: int = SWEEP_NUM_CLIENTS,
    block_batch: int = SWEEP_BLOCK_BATCH,
    seed: int = 0,
) -> List[Dict]:
    """The sweep's ordered (f, topology, protocol) points."""
    if f_values is None:
        f_values = SWEEP_F_VALUES.get(scale_name, SWEEP_F_VALUES["small"])
    if num_transactions is None:
        num_transactions = SWEEP_NUM_TRANSACTIONS.get(scale_name, SWEEP_NUM_TRANSACTIONS["small"])
    return [
        dict(protocol=protocol, topology=topology, f=f, num_transactions=num_transactions,
             clients=clients, block_batch=block_batch, seed=seed)
        for f in f_values
        for topology in topologies
        for protocol in protocols
    ]


def run_grid_point(point: Dict) -> ClusterResult:
    protocol, topology, f = point["protocol"], point["topology"], point["f"]
    return run_contract_point(
        protocol,
        topology,
        f,
        protocol_sizes(protocol, f)[1] or None,
        point["clients"],
        point["num_transactions"],
        point["block_batch"],
        point["seed"],
        SWEEP_MAX_SIM_TIME,
        f"{protocol}/{topology}/f={f}",
    )


def contract_row(point: Dict, result: ClusterResult) -> Dict:
    return result_row(
        result,
        protocol=point["protocol"],
        topology=point["topology"],
        f=point["f"],
        n=protocol_sizes(point["protocol"], point["f"])[0],
        clients=point["clients"],
        transactions=result.completed_operations,
        throughput_tps=round(result.throughput, 1),
    )


def run_smart_contract_benchmark(
    f: int = 2,
    c_sbft: int = 1,
    num_clients: int = 8,
    num_transactions: int = 1_500,
    topologies: Sequence[str] = ("continent", "world"),
    protocols: Sequence[str] = ("sbft-c8", "pbft"),
    block_batch: int = 4,
    seed: int = 0,
    max_sim_time: float = 600.0,
) -> List[Dict]:
    """Run the smart-contract table: (topology x protocol) rows plus baseline.

    The paper's headline comparison is full SBFT vs scale-optimized PBFT; the
    default ``protocols`` reflect that, but any registered variant works.
    """
    rows: List[Dict] = []
    baseline = single_node_baseline(num_transactions=min(num_transactions, 1_000), seed=7)
    rows.append(baseline)

    for topology in topologies:
        for protocol in protocols:
            c = c_sbft if protocol == "sbft-c8" else None
            result = run_contract_point(
                protocol,
                topology,
                f,
                c,
                num_clients,
                num_transactions,
                block_batch,
                seed,
                max_sim_time,
                f"{protocol}/{topology}",
            )
            rows.append(
                {
                    "label": f"{protocol} ({topology} WAN)",
                    "protocol": protocol,
                    "topology": topology,
                    "transactions": result.completed_operations,
                    "throughput_tps": round(result.throughput, 1),
                    "mean_latency_ms": round(result.mean_latency * 1000, 1),
                    "median_latency_ms": round(result.median_latency * 1000, 1),
                    "messages": result.network_messages,
                }
            )
    return rows


def slowdown_vs_baseline(rows: List[Dict]) -> Dict[str, float]:
    """The paper's "replication slowdown relative to the baseline" numbers."""
    baseline = next((row for row in rows if row["label"] == "single-node baseline"), None)
    if baseline is None or baseline["throughput_tps"] <= 0:
        return {}
    slowdowns = {}
    for row in rows:
        if row is baseline or "protocol" not in row:
            continue
        if row["throughput_tps"] > 0:
            slowdowns[row["label"]] = round(baseline["throughput_tps"] / row["throughput_tps"], 2)
    return slowdowns


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
    run_point=run_grid_point,
    row=contract_row,
    scales=tuple(SWEEP_F_VALUES),
    axes={
        "protocols": dict(nargs="+"),
        "topologies": dict(nargs="+"),
        "clients": dict(type=int),
        "block_batch": dict(type=int),
    },
)


if __name__ == "__main__":
    sys.exit(harness.main(SWEEP))
