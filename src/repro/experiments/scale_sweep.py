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
-compatible shape; ``BENCH_scale_sweep.json`` at the repo root is the committed
baseline and ``--check-against`` requires every seed-determined row key to
equal it (see :mod:`repro.experiments.harness`, which owns the CLI)::

    PYTHONPATH=src python -m repro.experiments.scale_sweep --scale small --output BENCH_scale_sweep.json
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Sequence

from repro.experiments import harness
from repro.experiments.harness import (
    COMMON_ROW_SCHEMA,
    ExperimentScale,
    protocol_sizes,
    result_row,
    run_kv_point,
)
from repro.protocols.cluster import ClusterResult

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
        client_counts=(16,),
        requests_per_client=4,
        block_batch=16,
        max_sim_time=600.0,
    )


def grid(
    scale_name: str = "small",
    protocols: Sequence[str] = ("sbft-c0",),
    f_values: Optional[Sequence[int]] = None,
    clients: int = 16,
    kv_batch: int = 8,
    topology: str = "continent",
    seed: int = 0,
) -> List[Dict]:
    """The sweep's ordered (protocol, f) points."""
    if f_values is None:
        f_values = SWEEP_F_VALUES.get(scale_name, SWEEP_F_VALUES["small"])
    return [
        dict(protocol=protocol, f=f, scale_name=scale_name, clients=clients,
             kv_batch=kv_batch, topology=topology, seed=seed)
        for protocol in protocols
        for f in f_values
    ]


def run_scale_point(point: Dict) -> ClusterResult:
    protocol, f = point["protocol"], point["f"]
    return run_kv_point(
        protocol,
        sweep_scale(point["scale_name"], f),
        num_clients=point["clients"],
        kv_batch=point["kv_batch"],
        topology=point["topology"],
        seed=point["seed"],
        label=f"{protocol}/f={f}/n={protocol_sizes(protocol, f)[0]}",
    )


def scale_row(point: Dict, result: ClusterResult) -> Dict:
    protocol, f = point["protocol"], point["f"]
    return result_row(
        result, protocol=protocol, f=f, n=protocol_sizes(protocol, f)[0], clients=point["clients"]
    )


ROW_SCHEMA: Dict[str, str] = dict(
    COMMON_ROW_SCHEMA,
    clients="number of closed-loop clients at every sweep point",
    wall_us_per_message="host wall-clock microseconds per network message (not gated)",
)

SWEEP = harness.Sweep(
    group="scale-sweep",
    summary=__doc__.splitlines()[0],
    example="PYTHONPATH=src python -m repro.experiments.scale_sweep "
    "--scale small --output BENCH_scale_sweep.json",
    row_schema=ROW_SCHEMA,
    grid=grid,
    run_point=run_scale_point,
    row=scale_row,
    scales=tuple(SWEEP_F_VALUES),
    axes={
        "protocols": dict(nargs="+"),
        "clients": dict(type=int),
        "kv_batch": dict(type=int),
        "topology": dict(),
    },
)


if __name__ == "__main__":
    sys.exit(harness.main(SWEEP))
