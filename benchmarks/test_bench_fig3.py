"""Figure 3 — latency vs throughput curves for the five protocol variants
(the throughput sweep's ``figures`` panel with the axes swapped)."""

from __future__ import annotations

from conftest import attach_rows
from repro.experiments import harness, throughput
from repro.experiments.throughput import latency_curves
from repro.protocols.registry import PAPER_ORDER

KV_BATCH = 8


def test_figure3_latency_vs_throughput(benchmark, scale_name):
    """Sweep the client counts and report the per-protocol latency curves."""
    points = throughput.grid(scale_name, panels=("figures",), kv_batch=(KV_BATCH,), failures=(0,))
    rows = benchmark.pedantic(
        lambda: harness.run(throughput.SWEEP, points), rounds=1, iterations=1
    )
    attach_rows(benchmark, rows)

    curves = latency_curves(rows, kv_batch=KV_BATCH, failures=0)
    assert set(curves) == set(PAPER_ORDER)
    for protocol, points in curves.items():
        assert all(throughput > 0 and latency_ms > 0 for throughput, latency_ms in points)

    # Shape check from the paper: the collector-based linear path costs some
    # latency relative to PBFT at light load, and the fast path wins it back.
    light_load = {
        protocol: points[0][1] for protocol, points in curves.items() if points
    }
    assert light_load["linear-pbft"] >= light_load["linear-pbft-fast"]


def test_fig3_no_batching_row(benchmark, scale_name):
    """The unbatched row of Figures 2/3 (each request is a single put)."""
    figures = throughput.panel(scale_name, "figures")
    points = throughput.grid(scale_name, panels=("figures",), protocols=("pbft", "sbft-c0"),
                             kv_batch=(1,), failures=(0,), clients=(max(figures.clients),))
    rows = benchmark.pedantic(
        lambda: harness.run(throughput.SWEEP, points), rounds=1, iterations=1
    )
    attach_rows(benchmark, rows)
    assert all(row["throughput_ops"] > 0 for row in rows)
