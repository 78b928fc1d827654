"""Scale sweep — throughput and harness wall-clock as n grows (BENCH baseline).

SBFT's headline claims are about *scale*: collector-based communication keeps
message complexity linear, so throughput should degrade gracefully as the
replica count grows from n=4 toward the paper's 200-replica deployments
(Section IX).  This sweep runs one fig2-style point (fixed client count, KV
workload, continent WAN) per replication factor and records, for each point:

* simulated throughput / latency (the protocol-level result), and
* *wall-clock seconds per simulated event* (the harness-level result the
  hot-path optimizations target — dispatch tables, heap compaction, memoized
  crypto).

``--output`` writes the rows in a ``pytest-benchmark --benchmark-json``
-compatible shape (via :func:`repro.experiments.harness.emit_and_gate`) so
trajectory tooling can track ``BENCH_*.json`` files across PRs::

    PYTHONPATH=src python -m repro.experiments.scale_sweep --scale small --output BENCH_scale_sweep.json

Every sweep point is an independent fixed-seed simulation, so ``--jobs N``
runs points in N worker processes with results identical to serial execution
(rows stay in grid order).  ``--check-against BASELINE.json`` turns the run
into a perf gate: it fails when per-event cost (``cpu_us_per_event``: CPU time
per simulated event, which is immune to worker-process contention) regresses
more than ``--max-regression``-fold against the baseline document (used by CI against the committed
``BENCH_scale_sweep.json``).

Each output row carries (see ``--help`` for the full schema): ``label``
(``{protocol}/f={f}/n={n}``), ``protocol``/``f``/``n``/``clients``, the
simulated metrics (``throughput_ops``, ``mean/median/p99_latency_ms``,
``completed_operations``, ``messages_sent``, ``bytes_sent``) and the harness
cost (``wall/cpu_seconds``, ``sim_seconds``, ``events_processed``,
``wall_us_per_message``, ``{wall,cpu}_us_per_event``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.experiments.harness import (
    COMMON_ROW_SCHEMA,
    ExperimentScale,
    add_baseline_arguments,
    add_rounds_argument,
    emit_and_gate,
    format_table,
    harness_cost_fields,
    make_epilog,
    protocol_sizes,
    result_row,
    run_kv_point,
    run_points,
    timed_rounds,
)

#: Replication factors per sweep scale.  ``f`` values translate to
#: ``n = 3f + 1`` replicas: small sweeps 4..25 replicas, medium to 49, and
#: ``paper`` reaches n=193 — the order of the paper's ~200-replica deployment.
SWEEP_F_VALUES: Dict[str, Sequence[int]] = {
    "small": (1, 2, 4, 8),
    "medium": (1, 2, 4, 8, 16),
    "paper": (1, 4, 16, 32, 64),
}


def sweep_scale(name: str, f: int) -> ExperimentScale:
    """A fig2-style point scale for one replication factor."""
    return ExperimentScale(
        name=f"scale-sweep-{name}-f{f}",
        f=f,
        c_for_sbft_c8=protocol_sizes("sbft-c8", f)[1],
        client_counts=(16,),
        requests_per_client=4,
        block_batch=16,
        max_sim_time=600.0,
    )


def _sweep_point_worker(spec: Tuple) -> Dict:
    """Run one (protocol, f) sweep point; module-level so it pickles for
    :func:`repro.experiments.harness.run_points` worker processes."""
    protocol, scale_name, f, num_clients, kv_batch, topology, seed, rounds = spec
    scale = sweep_scale(scale_name, f)
    n = scale.n_c8 if protocol == "sbft-c8" else scale.n_c0
    wall, cpu, result = timed_rounds(
        lambda: run_kv_point(
            protocol,
            scale,
            num_clients=num_clients,
            kv_batch=kv_batch,
            topology=topology,
            seed=seed,
            label=f"{protocol}/f={f}/n={n}",
        ),
        rounds,
    )
    row = result_row(
        result,
        protocol=protocol,
        f=f,
        n=n,
        clients=num_clients,
    )
    row.update(harness_cost_fields(wall, cpu, result))
    row["wall_us_per_message"] = round(1e6 * wall / max(1, result.network_messages), 2)
    return row


def run_scale_sweep(
    scale_name: str = "small",
    protocols: Sequence[str] = ("sbft-c0",),
    f_values: Optional[Sequence[int]] = None,
    num_clients: int = 16,
    kv_batch: int = 8,
    topology: str = "continent",
    seed: int = 0,
    rounds: int = 1,
    jobs: int = 1,
) -> List[Dict]:
    """Run the sweep; returns one row per (protocol, f) point.

    Each row carries both simulated metrics (throughput, latency) and harness
    metrics (wall-clock, events processed, wall-clock per message/event).
    With ``jobs > 1`` the points run in that many worker processes; every
    point is an independent fixed-seed simulation, so the rows are identical
    to a serial run and stay in (protocol, f) grid order.
    """
    if f_values is None:
        f_values = SWEEP_F_VALUES.get(scale_name, SWEEP_F_VALUES["small"])
    specs = [
        (protocol, scale_name, f, num_clients, kv_batch, topology, seed, rounds)
        for protocol in protocols
        for f in f_values
    ]
    return run_points(_sweep_point_worker, specs, jobs=jobs)


#: Sweep-specific row keys, appended to the common schema in ``--help``.
ROW_SCHEMA: Dict[str, str] = dict(
    COMMON_ROW_SCHEMA,
    clients="number of closed-loop clients at every sweep point",
    wall_us_per_message="wall-clock microseconds per network message",
)

EPILOG = make_epilog(
    "PYTHONPATH=src python -m repro.experiments.scale_sweep "
    "--scale small --output BENCH_scale_sweep.json",
    ROW_SCHEMA,
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog=EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--scale", default="small", choices=sorted(SWEEP_F_VALUES))
    parser.add_argument("--protocols", nargs="+", default=["sbft-c0"])
    parser.add_argument("--clients", type=int, default=16)
    parser.add_argument("--kv-batch", type=int, default=8)
    parser.add_argument("--topology", default="continent")
    parser.add_argument("--seed", type=int, default=0)
    add_rounds_argument(parser)
    add_baseline_arguments(parser)
    args = parser.parse_args(argv)

    try:
        rows = run_scale_sweep(
            scale_name=args.scale,
            protocols=args.protocols,
            num_clients=args.clients,
            kv_batch=args.kv_batch,
            topology=args.topology,
            seed=args.seed,
            rounds=args.rounds,
            jobs=args.jobs,
        )
    except ConfigurationError as error:
        parser.error(str(error))
    print(format_table(rows))
    return emit_and_gate(rows, group="scale-sweep", scale_name=args.scale, args=args)


if __name__ == "__main__":
    sys.exit(main())
