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
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.experiments import harness
from repro.experiments.harness import KV, COMMON_ROW_SCHEMA, Point, result_row
from repro.protocols.cluster import ClusterResult

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


#: How big to run each grid, per scale: ``requests`` per client of
#: ``kv_batch`` operations each, ``block_batch`` the minimum client requests
#: per block, ``max_outstanding`` pipelined requests in flight per client.
#: The top of each ``client_counts`` curve must saturate the primary so the
#: adaptive policy has a queue to drain — that is where fixed batching pays a
#: per-block protocol cost per ``block_batch`` requests and adaptive amortizes
#: it over up to ``batch_max``.
SWEEP_SCALES: Dict[str, Dict[str, Any]] = {
    "small": dict(f=1, client_counts=(4, 16, 64), requests=8, kv_batch=4, block_batch=8,
                  max_outstanding=4, max_sim_time=240.0),
    "medium": dict(f=4, client_counts=(8, 32, 128), requests=8, kv_batch=4, block_batch=8,
                   max_outstanding=4, max_sim_time=480.0),
    "paper": dict(f=16, client_counts=(16, 64, 256), requests=8, kv_batch=8, block_batch=16,
                  max_outstanding=8, max_sim_time=1200.0),
}


def grid(
    scale_name: str = "small",
    protocols: Sequence[str] = DEFAULT_PROTOCOLS,
    policies: Sequence[str] = POLICIES,
    clients: Optional[Sequence[int]] = None,
    topology: str = "continent",
    seed: int = 0,
) -> List[Point]:
    """The sweep's ordered (protocol, policy, num_clients) points;
    ``clients`` overrides the scale's client-count curve."""
    size = harness.scale_entry(SWEEP_SCALES, scale_name)
    for policy in policies:
        if policy not in POLICIES:
            raise ConfigurationError(
                f"unknown batch policy {policy!r} (known: {', '.join(POLICIES)})"
            )
    return [
        Point(
            protocol=protocol,
            f=size["f"],
            clients=num_clients,
            workload=KV(requests=size["requests"], batch=size["kv_batch"]),
            label=f"{protocol}/{policy}/clients={num_clients}",
            topology=topology,
            block_batch=size["block_batch"],
            seed=seed,
            config_overrides=dict(
                CONFIG_OVERRIDES,
                batch_policy=policy,
                client_max_outstanding=size["max_outstanding"],
            ),
            max_sim_time=size["max_sim_time"],
        )
        for protocol in protocols
        for policy in policies
        for num_clients in (size["client_counts"] if clients is None else clients)
    ]


def client_row(point: Point, result: ClusterResult) -> Dict:
    # Any non-crashed replica executed every block; the max is robust to
    # laggards that were still catching up when the last client finished.
    blocks = max(stats["blocks_executed"] for stats in result.replica_stats.values())
    expected = point.clients * point.workload.requests
    completed = result.run.completed_requests
    return result_row(
        result,
        protocol=point.protocol,
        policy=point.config_overrides["batch_policy"],
        clients=point.clients,
        max_outstanding=point.config_overrides["client_max_outstanding"],
        f=point.f,
        n=point.n,
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
