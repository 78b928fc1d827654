"""Client-load sweep as a benchmark (Section IX, Figure 2's load axis).

One row per (protocol, batch-policy, num_clients) point of the throughput
sweep's pipelined ``clients`` panel; rows carry simulated throughput/latency, the batching
evidence (blocks executed, requests per block) and the harness wall/CPU cost.
``REPRO_BENCH_SCALE`` picks the sweep size like the other benchmarks.

The sweep's headline property is asserted here: at the top of the
client-scaling curve the adaptive batching policy sustains strictly higher
simulated throughput than the fixed policy (it drains the saturated primary's
queue into a few large blocks), while at the bottom of the curve the two
policies behave alike.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from conftest import attach_rows
from repro.experiments import harness, throughput
from repro.experiments.throughput import POLICIES, SWEEP


@pytest.mark.parametrize("protocol", ["sbft-c0", "pbft"])
def test_client_sweep(benchmark, scale_name, protocol):
    ladder = replace(throughput.panel(scale_name, "clients"), protocols=(protocol,))
    client_counts = ladder.clients

    def run():
        return harness.run(SWEEP, ladder.points())

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
