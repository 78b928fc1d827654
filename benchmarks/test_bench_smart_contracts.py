"""Smart-contract benchmark — the paper's continent/world WAN tables.

Paper values (f=64, 209 replicas, 500k real Ethereum transactions):

* continent WAN: SBFT 378 tx/s @ 254 ms vs PBFT 204 tx/s @ 538 ms
* world WAN:     SBFT 172 tx/s @ 622 ms vs PBFT  98 tx/s @ 934 ms
* single unreplicated node: 840 tx/s

The benchmark regenerates the same rows with the synthetic Ethereum-like
workload at the configured scale; the expected *shape* is that SBFT beats PBFT
on both throughput and latency, the world WAN is slower than the continent
WAN, and both are slower than the unreplicated baseline.
"""

from __future__ import annotations

import pytest

from conftest import attach_rows
from repro.core import execution_cache
from repro.experiments import harness
from repro.experiments.smart_contracts import (
    SWEEP,
    grid,
    run_smart_contract_benchmark,
    single_node_baseline,
    slowdown_vs_baseline,
)


def test_single_node_baseline(benchmark):
    result = benchmark.pedantic(
        lambda: single_node_baseline(num_transactions=800), rounds=1, iterations=1
    )
    attach_rows(benchmark, [result])
    assert result["throughput_tps"] > 0


@pytest.mark.parametrize("topology", ["continent", "world"])
def test_smart_contract_table(benchmark, scale, topology):
    def run():
        return run_smart_contract_benchmark(
            f=scale.f,
            c_sbft=scale.c_for_sbft_c8,
            num_clients=min(8, max(scale.client_counts)),
            num_transactions=600,
            topologies=(topology,),
            protocols=("sbft-c8", "pbft"),
            block_batch=scale.block_batch // 2 or 2,
            max_sim_time=scale.max_sim_time,
        )

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    attach_rows(benchmark, rows)

    by_protocol = {row["protocol"]: row for row in rows if "protocol" in row}
    sbft = by_protocol["sbft-c8"]
    pbft = by_protocol["pbft"]
    # Both variants executed the full stream.
    assert sbft["transactions"] == pbft["transactions"] == 600
    # Shape: SBFT at least matches PBFT's latency (the paper reports ~1.5-2x better).
    assert sbft["mean_latency_ms"] <= pbft["mean_latency_ms"] * 1.25
    # Replication is slower than unreplicated execution.
    slowdowns = slowdown_vs_baseline(rows)
    assert all(value >= 1.0 for value in slowdowns.values())


def test_smart_contract_sweep_rows_and_perf_columns(benchmark):
    """The BENCH_smart_contracts.json generator: per-point wall/CPU columns,
    and the deployment-shared execution cache actually engaging."""
    execution_cache.clear()

    def run():
        return harness.run(
            SWEEP,
            grid(
                scale_name="small",
                f_values=(2,),
                num_transactions=300,
                topologies=("continent",),
                protocols=("sbft-c8", "pbft"),
            ),
        )

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    attach_rows(benchmark, rows)
    assert [row["label"] for row in rows] == ["sbft-c8/continent/f=2", "pbft/continent/f=2"]
    for row in rows:
        assert row["transactions"] == 300
        assert row["wall_seconds"] > 0 and row["cpu_seconds"] > 0
        assert row["wall_us_per_event"] > 0 and row["cpu_us_per_event"] > 0
        assert row["events_processed"] > 0
    stats = execution_cache.stats()
    assert stats["misses"] > 0 and stats["hits"] > 0


def test_smart_contract_sweep_parallel_rows_match_serial():
    """--jobs N must not change the simulated rows (worker processes start
    with cold caches; only the host-clock columns may differ)."""
    points = grid(
        scale_name="small",
        f_values=(2,),
        num_transactions=300,
        topologies=("continent",),
        protocols=("sbft-c8", "pbft"),
    )
    serial = harness.run(SWEEP, points, jobs=1)
    parallel = harness.run(SWEEP, points, jobs=2)

    for serial_row, parallel_row in zip(serial, parallel):
        simulated_serial = {k: v for k, v in serial_row.items() if k not in harness.HOST_FIELDS}
        simulated_parallel = {k: v for k, v in parallel_row.items() if k not in harness.HOST_FIELDS}
        assert simulated_serial == simulated_parallel
