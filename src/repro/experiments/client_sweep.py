"""Client-load sweep — throughput/latency as offered load grows (BENCH baseline).

SBFT's headline evaluation axis (Section IX, Figure 2) is sustained
throughput as the number of clients grows, which the paper reaches through
primary-side request batching on top of the linear collector pattern.  This
sweep measures exactly that axis in the reproduction: a (protocol ×
batch-policy × num_clients) grid where every client is *pipelined*
(``client_max_outstanding`` requests in flight concurrently), so offered load
scales with the client count instead of being capped by one-client-one-request
lockstep.

``batch_policy="fixed"`` is today's static ``batch_size`` blocks;
``"adaptive"`` sizes each block from the observed queue depth and in-flight
load (bounded by ``batch_max``), which is what keeps throughput climbing at
the top of the client-scaling curve — deep queues drain into a few large
blocks instead of a stream of minimum-size ones.

Example (:mod:`repro.experiments.harness` owns the CLI; ``--help`` prints
the row schema)::

    PYTHONPATH=src python -m repro.experiments.client_sweep \
        --scale small --output BENCH_client_sweep.json
    PYTHONPATH=src python -m repro.experiments.client_sweep \
        --scale small --jobs 2 --check-against BENCH_client_sweep.json

``BENCH_client_sweep.json`` at the repo root is the committed baseline; the
second form is the CI gate: every seed-determined row key must equal it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.experiments import harness
from repro.experiments.harness import COMMON_ROW_SCHEMA, protocol_sizes, result_row
from repro.protocols.cluster import ClusterResult, build_cluster
from repro.workloads.kv_workload import KVWorkload

#: Batching policies the sweep compares (the grid's middle axis).
POLICIES: Tuple[str, ...] = ("fixed", "adaptive")

DEFAULT_PROTOCOLS: Tuple[str, ...] = ("sbft-c0", "pbft")

#: Shared timer overrides, as in the fault sweep: short enough that batching
#: (not timer slack) dominates the measured throughput.
CONFIG_OVERRIDES = {
    "fast_path_timeout": 0.05,
    "batch_timeout": 0.01,
    "view_change_timeout": 2.0,
    "client_retry_timeout": 3.0,
}


@dataclass(frozen=True)
class ClientSweepScale:
    """How big to run one client-sweep grid."""

    name: str
    f: int
    client_counts: Sequence[int]
    requests_per_client: int
    kv_batch: int              # operations per client request
    block_batch: int           # batch_size: minimum client requests per block
    max_outstanding: int       # pipelined requests in flight per client
    max_sim_time: float


#: The top of each ``client_counts`` curve must saturate the primary so the
#: adaptive policy has a queue to drain — that is where fixed batching pays a
#: per-block protocol cost per ``block_batch`` requests and adaptive amortizes
#: it over up to ``batch_max``.
SWEEP_SCALES: Dict[str, ClientSweepScale] = {
    "small": ClientSweepScale("small", f=1, client_counts=(4, 16, 64),
                              requests_per_client=8, kv_batch=4, block_batch=8,
                              max_outstanding=4, max_sim_time=240.0),
    "medium": ClientSweepScale("medium", f=4, client_counts=(8, 32, 128),
                               requests_per_client=8, kv_batch=4, block_batch=8,
                               max_outstanding=4, max_sim_time=480.0),
    "paper": ClientSweepScale("paper", f=16, client_counts=(16, 64, 256),
                              requests_per_client=8, kv_batch=8, block_batch=16,
                              max_outstanding=8, max_sim_time=1200.0),
}


def run_client_point(
    protocol: str,
    policy: str,
    num_clients: int,
    scale: ClientSweepScale,
    topology: str = "continent",
    seed: int = 0,
    label: Optional[str] = None,
):
    """Run one (protocol, policy, num_clients) point; returns a ClusterResult."""
    if policy not in POLICIES:
        raise ConfigurationError(
            f"unknown batch policy {policy!r} (known: {', '.join(POLICIES)})"
        )
    n, c = protocol_sizes(protocol, scale.f)
    overrides = dict(CONFIG_OVERRIDES)
    overrides["batch_policy"] = policy
    overrides["client_max_outstanding"] = scale.max_outstanding
    cluster = build_cluster(
        protocol,
        f=scale.f,
        c=c if protocol == "sbft-c8" else None,
        num_clients=num_clients,
        topology=topology,
        batch_size=scale.block_batch,
        seed=seed,
        config_overrides=overrides,
    )
    workload = KVWorkload(
        requests_per_client=scale.requests_per_client,
        batch_size=scale.kv_batch,
        seed=seed + 1,
    )
    return cluster.run(
        workload,
        max_sim_time=scale.max_sim_time,
        label=label or f"{protocol}/{policy}/clients={num_clients}",
    )


def grid(
    scale_name: str = "small",
    protocols: Sequence[str] = DEFAULT_PROTOCOLS,
    policies: Sequence[str] = POLICIES,
    clients: Optional[Sequence[int]] = None,
    topology: str = "continent",
    seed: int = 0,
) -> List[Dict]:
    """The sweep's ordered (protocol, policy, num_clients) points;
    ``clients`` overrides the scale's client-count curve."""
    if scale_name not in SWEEP_SCALES:
        raise ConfigurationError(f"unknown client-sweep scale {scale_name!r}")
    counts = clients if clients is not None else SWEEP_SCALES[scale_name].client_counts
    return [
        dict(protocol=protocol, policy=policy, clients=num_clients,
             scale_name=scale_name, topology=topology, seed=seed)
        for protocol in protocols
        for policy in policies
        for num_clients in counts
    ]


def run_grid_point(point: Dict) -> ClusterResult:
    return run_client_point(
        point["protocol"],
        point["policy"],
        point["clients"],
        SWEEP_SCALES[point["scale_name"]],
        topology=point["topology"],
        seed=point["seed"],
    )


def client_row(point: Dict, result: ClusterResult) -> Dict:
    scale = SWEEP_SCALES[point["scale_name"]]
    # Any non-crashed replica executed every block; the max is robust to
    # laggards that were still catching up when the last client finished.
    blocks = max(stats["blocks_executed"] for stats in result.replica_stats.values())
    expected = point["clients"] * scale.requests_per_client
    completed = result.run.completed_requests
    return result_row(
        result,
        protocol=point["protocol"],
        policy=point["policy"],
        clients=point["clients"],
        max_outstanding=scale.max_outstanding,
        f=scale.f,
        n=protocol_sizes(point["protocol"], scale.f)[0],
        completed_requests=completed,
        expected_requests=expected,
        all_completed=completed >= expected,
        blocks_executed=blocks,
        requests_per_block=round(completed / blocks, 2) if blocks else 0.0,
    )


#: Row keys shown in the CLI table (the full rows go into the JSON output).
TABLE_COLUMNS = (
    "label",
    "clients",
    "policy",
    "throughput_ops",
    "mean_latency_ms",
    "blocks_executed",
    "requests_per_block",
    "all_completed",
    "wall_seconds",
    "cpu_us_per_event",
)

ROW_SCHEMA: Dict[str, str] = dict(
    COMMON_ROW_SCHEMA,
    policy="batch policy of this point: 'fixed' or 'adaptive'",
    clients="number of concurrent (pipelined) clients",
    max_outstanding="requests each client keeps in flight concurrently",
    completed_requests="client requests acknowledged by the cluster",
    expected_requests="clients x requests_per_client at this scale",
    all_completed="every offered request was acknowledged",
    blocks_executed="decision blocks executed (max over replicas)",
    requests_per_block="completed_requests / blocks_executed (batching evidence)",
)

SWEEP = harness.Sweep(
    group="client-sweep",
    summary=__doc__.splitlines()[0],
    example="PYTHONPATH=src python -m repro.experiments.client_sweep "
    "--scale small --output BENCH_client_sweep.json",
    row_schema=ROW_SCHEMA,
    grid=grid,
    run_point=run_grid_point,
    row=client_row,
    scales=tuple(SWEEP_SCALES),
    table_columns=TABLE_COLUMNS,
    axes={
        "protocols": dict(nargs="+"),
        "policies": dict(nargs="+", choices=POLICIES),
        "clients": dict(nargs="+", type=int, help="override the scale's client-count curve"),
        "topology": dict(),
    },
)


if __name__ == "__main__":
    sys.exit(harness.main(SWEEP))
