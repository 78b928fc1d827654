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

Example::

    PYTHONPATH=src python -m repro.experiments.client_sweep \
        --scale small --rounds 3 --output BENCH_client_sweep.json
    PYTHONPATH=src python -m repro.experiments.client_sweep \
        --scale small --jobs 2 --check-against BENCH_client_sweep.json

Each output row carries (see ``--help`` for the full schema): ``label``
(``{protocol}/{policy}/clients={k}``), ``protocol``, ``policy``, ``clients``,
``max_outstanding``, ``f``/``n``, the simulated metrics (``throughput_ops``,
``mean/median/p99_latency_ms``, ``completed_operations``,
``completed_requests``, ``expected_requests``, ``all_completed``), the
batching evidence (``blocks_executed``, ``requests_per_block``), the traffic
counters (``messages_sent``, ``bytes_sent``) and the harness cost
(``wall/cpu_seconds``, ``sim_seconds``, ``events_processed``,
``{wall,cpu}_us_per_event``).

Every sweep point is an independent fixed-seed simulation, so ``--jobs N``
fans the grid out over worker processes with rows identical to a serial run
(grid order preserved).  ``BENCH_client_sweep.json`` at the repo root is the
committed trajectory baseline (regenerate with ``--rounds 3`` — min-of-3 per
point); ``--check-against BENCH_client_sweep.json --max-regression 2.0`` is
the CI perf-smoke gate on CPU time per simulated event, run with ``--jobs 2``
next to the scale/smart-contract/fault sweep gates.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.experiments.harness import (
    COMMON_ROW_SCHEMA,
    add_baseline_arguments,
    add_rounds_argument,
    emit_and_gate,
    format_table,
    harness_cost_fields,
    make_epilog,
    protocol_sizes,
    result_row,
    run_points,
    timed_rounds,
)
from repro.protocols.cluster import build_cluster
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


def _sweep_point_worker(spec: Tuple) -> Dict:
    """Run one sweep point; module-level so it pickles for
    :func:`repro.experiments.harness.run_points` worker processes.

    ``rounds`` fixed-seed repetitions are run and the minimum-wall-clock one
    is reported (min-of-N, as in the other trajectory baselines); the
    simulated rows are identical across rounds by construction.
    """
    protocol, policy, num_clients, scale_name, topology, seed, rounds = spec
    scale = SWEEP_SCALES[scale_name]
    label = f"{protocol}/{policy}/clients={num_clients}"
    wall, cpu, result = timed_rounds(
        lambda: run_client_point(
            protocol, policy, num_clients, scale, topology=topology, seed=seed, label=label
        ),
        rounds,
    )
    n, _c = protocol_sizes(protocol, scale.f)
    # Any non-crashed replica executed every block; the max is robust to
    # laggards that were still catching up when the last client finished.
    blocks = max(stats["blocks_executed"] for stats in result.replica_stats.values())
    expected = num_clients * scale.requests_per_client
    completed = result.run.completed_requests
    row = result_row(
        result,
        protocol=protocol,
        policy=policy,
        clients=num_clients,
        max_outstanding=scale.max_outstanding,
        f=scale.f,
        n=n,
        completed_requests=completed,
        expected_requests=expected,
        all_completed=completed >= expected,
        blocks_executed=blocks,
        requests_per_block=round(completed / blocks, 2) if blocks else 0.0,
    )
    row.update(harness_cost_fields(wall, cpu, result))
    return row


def run_client_sweep(
    scale_name: str = "small",
    protocols: Sequence[str] = DEFAULT_PROTOCOLS,
    policies: Sequence[str] = POLICIES,
    client_counts: Optional[Sequence[int]] = None,
    topology: str = "continent",
    seed: int = 0,
    rounds: int = 1,
    jobs: int = 1,
) -> List[Dict]:
    """Run the sweep; one row per (protocol, policy, num_clients) point.

    With ``jobs > 1`` the points run in worker processes; every point is an
    independent fixed-seed simulation, so rows are identical to a serial run
    and stay in grid order.
    """
    if scale_name not in SWEEP_SCALES:
        raise ConfigurationError(f"unknown client-sweep scale {scale_name!r}")
    scale = SWEEP_SCALES[scale_name]
    for policy in policies:
        if policy not in POLICIES:
            raise ConfigurationError(
                f"unknown batch policy {policy!r} (known: {', '.join(POLICIES)})"
            )
    counts = list(client_counts) if client_counts is not None else list(scale.client_counts)
    specs = [
        (protocol, policy, num_clients, scale_name, topology, seed, rounds)
        for protocol in protocols
        for policy in policies
        for num_clients in counts
    ]
    return run_points(_sweep_point_worker, specs, jobs=jobs)


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

#: Sweep-specific row keys, appended to the common schema in ``--help``.
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

EPILOG = make_epilog(
    "PYTHONPATH=src python -m repro.experiments.client_sweep "
    "--scale small --rounds 3 --output BENCH_client_sweep.json",
    ROW_SCHEMA,
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog=EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--scale", default="small", choices=sorted(SWEEP_SCALES))
    parser.add_argument("--protocols", nargs="+", default=list(DEFAULT_PROTOCOLS))
    parser.add_argument("--policies", nargs="+", default=list(POLICIES), choices=POLICIES)
    parser.add_argument("--clients", nargs="+", type=int, default=None,
                        help="override the scale's client-count curve")
    parser.add_argument("--topology", default="continent")
    parser.add_argument("--seed", type=int, default=0)
    add_rounds_argument(parser)
    add_baseline_arguments(parser)
    args = parser.parse_args(argv)

    try:
        rows = run_client_sweep(
            scale_name=args.scale,
            protocols=args.protocols,
            policies=args.policies,
            client_counts=args.clients,
            topology=args.topology,
            seed=args.seed,
            rounds=args.rounds,
            jobs=args.jobs,
        )
    except ConfigurationError as error:
        parser.error(str(error))
    print(format_table(rows, columns=TABLE_COLUMNS))
    return emit_and_gate(rows, group="client-sweep", scale_name=args.scale, args=args)


if __name__ == "__main__":
    sys.exit(main())
