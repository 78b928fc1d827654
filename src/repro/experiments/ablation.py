"""Ingredient ablation — the incremental contribution of each design ingredient.

Section IX walks through the four ingredients one at a time: linear
communication improves throughput at some latency cost, the fast path improves
latency (only without failures), the execution collector helps when there are
many clients, and redundant servers (c > 0) recover the fast path under a few
failures and reduce variance.  This driver runs the five protocol variants
at a fixed client count with and without failures so the per-ingredient deltas
can be read off directly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.harness import ExperimentScale, SMALL_SCALE, result_row, run_kv_point
from repro.protocols.registry import PAPER_ORDER

#: Which ingredient each successive variant adds (paper Section I.A).
INGREDIENT_BY_PROTOCOL = {
    "pbft": "baseline (scale-optimized PBFT)",
    "linear-pbft": "+ ingredient 1: linear communication via collectors",
    "linear-pbft-fast": "+ ingredient 2: optimistic fast path",
    "sbft-c0": "+ ingredient 3: execution collectors / single client message",
    "sbft-c8": "+ ingredient 4: redundant servers (c > 0)",
}


def run_ablation(
    scale: ExperimentScale = SMALL_SCALE,
    num_clients: Optional[int] = None,
    kv_batch: int = 8,
    failure_counts: Sequence[int] = (0, 1),
    topology: str = "continent",
    seed: int = 0,
    protocols: Optional[Sequence[str]] = None,
) -> List[Dict]:
    """Run every variant at one load point, with and without failures."""
    protocols = list(protocols) if protocols is not None else list(PAPER_ORDER)
    clients = num_clients if num_clients is not None else max(scale.client_counts)
    rows: List[Dict] = []
    for failures in failure_counts:
        for protocol in protocols:
            result = run_kv_point(
                protocol,
                scale,
                num_clients=clients,
                kv_batch=kv_batch,
                failures=failures,
                topology=topology,
                seed=seed,
                label=f"{protocol}/fail={failures}",
            )
            rows.append(
                result_row(
                    result,
                    protocol=protocol,
                    ingredient=INGREDIENT_BY_PROTOCOL.get(protocol, protocol),
                    failures=failures,
                    clients=clients,
                    fast_blocks=sum(
                        stats.get("blocks_committed_fast", 0)
                        for stats in result.replica_stats.values()
                    ),
                    slow_blocks=sum(
                        stats.get("blocks_committed_slow", 0)
                        for stats in result.replica_stats.values()
                    ),
                )
            )
    return rows
