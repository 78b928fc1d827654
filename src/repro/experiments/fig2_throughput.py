"""Figure 2/3 — throughput vs clients, latency vs throughput, and the ablation.

The paper's Figure 2 is a 2x3 grid: rows are the batching modes (batch=64 and
no batching), columns are the failure scenarios (no failures, 8 crashed
backups, 64 crashed backups), and each panel plots throughput against the
number of clients (4..256) for the five protocol variants.  Figure 3 plots
the same runs with the axes swapped, so one sweep feeds both figures:
:func:`throughput_series` and :func:`latency_curves` reshape its rows into
one panel of each.

Section IX's per-ingredient ablation is this sweep at one client count with
failures (0, 1): every row carries its fast- and slow-path block commits, and
:data:`repro.protocols.registry.PROTOCOLS` says which ingredient each variant
adds.  :mod:`repro.experiments.harness` owns the CLI::

    PYTHONPATH=src python -m repro.experiments.fig2_throughput --scale small --jobs 2
    PYTHONPATH=src python -m repro.experiments.fig2_throughput \
        --batch-modes 8 --failures 0 1 --client-counts 32
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments import harness
from repro.experiments.harness import (
    KV,
    COMMON_ROW_SCHEMA,
    SCALES,
    ExperimentScale,
    Point,
    result_row,
)
from repro.protocols.cluster import ClusterResult
from repro.protocols.registry import PAPER_ORDER, protocol_sizes
from repro.sim.faults import FaultPlan

#: The paper's batching modes: each client request carries 64 operations, or one.
PAPER_BATCH_MODES: Tuple[int, ...] = (64, 1)


def scaled_failures(scale: ExperimentScale) -> List[int]:
    """Map the paper's failure counts (0, 8, 64 out of f=64) onto a scale.

    The ratios are preserved: 0 failures, f/8 failures and f failures.
    """
    return sorted({0, max(1, scale.f // 8), scale.f})


def grid(
    scale_name: str = "small",
    protocols: Sequence[str] = PAPER_ORDER,
    batch_modes: Sequence[int] = PAPER_BATCH_MODES,
    failures: Optional[Sequence[int]] = None,
    client_counts: Optional[Sequence[int]] = None,
    topology: str = "continent",
    seed: int = 0,
    scale: Optional[ExperimentScale] = None,
) -> List[Point]:
    """The sweep's ordered (batch mode, failures, protocol, clients) points;
    ``failures`` backups crash from the start of the run.

    ``scale`` replaces the named scale (the test and benchmark suites run
    lighter ones); ``failures`` and ``client_counts`` default to the scale's.
    """
    scale = scale or harness.scale_entry(SCALES, scale_name)
    if failures is None:
        failures = scaled_failures(scale)
    if client_counts is None:
        client_counts = scale.client_counts
    return [
        Point(
            protocol=protocol,
            f=scale.f,
            clients=num_clients,
            workload=KV(requests=scale.requests_per_client, batch=kv_batch),
            label=f"{protocol}/batch={kv_batch}/fail={failure_count}/clients={num_clients}",
            topology=topology,
            block_batch=scale.block_batch,
            seed=seed,
            fault_plan=FaultPlan.crash_backups(failure_count, protocol_sizes(protocol, scale.f)[0]),
            max_sim_time=scale.max_sim_time,
        )
        for kv_batch in batch_modes
        for failure_count in failures
        for protocol in protocols
        for num_clients in client_counts
    ]


def figure2_row(point: Point, result: ClusterResult) -> Dict:
    stats = result.replica_stats.values()
    return result_row(
        result,
        protocol=point.protocol,
        f=point.f,
        n=point.n,
        topology=point.topology,
        kv_batch=point.workload.batch,
        failures=result.faults_planned,
        clients=point.clients,
        fast_blocks=sum(replica.get("blocks_committed_fast", 0) for replica in stats),
        slow_blocks=sum(replica.get("blocks_committed_slow", 0) for replica in stats),
    )


def _panel(rows: List[Dict], kv_batch: int, failures: int) -> Dict[str, List[Dict]]:
    """One panel of Figures 2/3: each protocol's rows, in grid order."""
    panel: Dict[str, List[Dict]] = {}
    for row in rows:
        if row["kv_batch"] == kv_batch and row["failures"] == failures:
            panel.setdefault(row["protocol"], []).append(row)
    return panel


def throughput_series(rows: List[Dict], kv_batch: int, failures: int) -> Dict[str, List[float]]:
    """Figure 2's per-protocol throughput series for one panel."""
    return {
        protocol: [row["throughput_ops"] for row in series]
        for protocol, series in _panel(rows, kv_batch, failures).items()
    }


def latency_curves(rows: List[Dict], kv_batch: int, failures: int) -> Dict[str, List[Tuple]]:
    """Figure 3's per-protocol (throughput, mean latency ms) curves for one panel."""
    return {
        protocol: sorted((row["throughput_ops"], row["mean_latency_ms"]) for row in series)
        for protocol, series in _panel(rows, kv_batch, failures).items()
    }


ROW_SCHEMA: Dict[str, str] = dict(
    COMMON_ROW_SCHEMA,
    topology="WAN latency model of this point",
    kv_batch="operations per client request (the paper's 'batch=64' / 'no batch': 64 / 1)",
    failures="backups crashed from the start of the run",
    clients="number of closed-loop clients at this point",
    fast_blocks="blocks committed on the fast path, summed over replicas",
    slow_blocks="blocks committed on the slow path, summed over replicas",
)

SWEEP = harness.Sweep(
    group="fig2",
    summary=__doc__.splitlines()[0],
    example="PYTHONPATH=src python -m repro.experiments.fig2_throughput --scale small --jobs 2",
    row_schema=ROW_SCHEMA,
    grid=grid,
    row=figure2_row,
    scales=tuple(SCALES),
    axes={
        "protocols": dict(nargs="+"),
        "batch_modes": dict(nargs="+", type=int, help="operations per client request"),
        "failures": dict(nargs="+", type=int, help="crashed backups (default: 0, f/8, f)"),
        "client_counts": dict(nargs="+", type=int),
        "topology": dict(),
    },
)


if __name__ == "__main__":
    sys.exit(harness.main(SWEEP))
