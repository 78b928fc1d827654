"""Client-load sweep as a benchmark (Section IX, Figure 2's load axis).

One row per (protocol, batch-policy, num_clients) point of the pipelined
client-scaling grid; rows carry simulated throughput/latency, the batching
evidence (blocks executed, requests per block) and the harness wall/CPU cost.
``REPRO_BENCH_SCALE`` picks the sweep size like the other benchmarks.

The sweep's headline property is asserted here: at the top of the
client-scaling curve the adaptive batching policy sustains strictly higher
simulated throughput than the fixed policy (it drains the saturated primary's
queue into a few large blocks), while at the bottom of the curve the two
policies behave alike.
"""

from __future__ import annotations

import pytest

from conftest import attach_rows
from repro.experiments import harness
from repro.experiments.client_sweep import POLICIES, SWEEP, SWEEP_SCALES, grid


@pytest.mark.parametrize("protocol", ["sbft-c0", "pbft"])
def test_client_sweep(benchmark, scale_name, protocol):
    client_counts = SWEEP_SCALES[scale_name]["client_counts"]

    def run():
        return harness.run(SWEEP, grid(scale_name=scale_name, protocols=[protocol]))

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    attach_rows(benchmark, rows)

    assert len(rows) == len(POLICIES) * len(client_counts)
    for row in rows:
        assert row["all_completed"], f"requests lost at {row['label']}"
        assert row["blocks_executed"] > 0

    by_point = {(row["policy"], row["clients"]): row for row in rows}
    top = max(client_counts)

    # The acceptance property: adaptive batching wins where the load is —
    # higher simulated throughput and larger blocks at the top of the curve.
    fixed_top = by_point[("fixed", top)]
    adaptive_top = by_point[("adaptive", top)]
    assert adaptive_top["throughput_ops"] > fixed_top["throughput_ops"], (
        f"adaptive {adaptive_top['throughput_ops']} <= fixed "
        f"{fixed_top['throughput_ops']} ops/s at clients={top}"
    )
    assert adaptive_top["requests_per_block"] > fixed_top["requests_per_block"]
    assert adaptive_top["blocks_executed"] < fixed_top["blocks_executed"]


def _stable(rows):
    """Strip the host-clock keys (they vary run to run)."""
    return [{k: v for k, v in row.items() if k not in harness.HOST_FIELDS} for row in rows]


def test_client_sweep_deterministic():
    """The sweep is a pure function of its seed (same rows serial or not)."""
    points = grid(scale_name="small", protocols=["sbft-c0"], clients=[8], seed=3)
    assert _stable(harness.run(SWEEP, points)) == _stable(harness.run(SWEEP, points))
