"""Ingredient ablation — Section IX's narrative, one row per protocol variant.

The ablation is a Figure 2 grid at one client count (``fast_blocks`` /
``slow_blocks`` ride on every row).  Expected shapes at any scale:

* the fast path commits blocks on the fast path only when it is enabled and
  there are at most ``c`` failures;
* with a crashed backup and c=0 every block falls back to the slow path,
  while SBFT with c>0 keeps the fast path;
* the execution-collector variant (sbft-c0) sends each client one execute-ack
  instead of f+1 signed replies, cutting client-bound traffic.
"""

from __future__ import annotations


from conftest import attach_rows
from repro.experiments import fig2_throughput, harness
from repro.protocols.registry import PAPER_ORDER


def ablation_rows(scale, failures, protocols=PAPER_ORDER):
    points = fig2_throughput.grid(
        scale=scale,
        protocols=protocols,
        batch_modes=[8],
        failures=[failures],
        client_counts=[min(16, max(scale.client_counts))],
    )
    return harness.run(fig2_throughput.SWEEP, points)


def test_ablation_no_failures(benchmark, scale):
    rows = benchmark.pedantic(lambda: ablation_rows(scale, 0), rounds=1, iterations=1)
    attach_rows(benchmark, rows)
    by_protocol = {row["protocol"]: row for row in rows}
    assert set(by_protocol) == set(PAPER_ORDER)
    # Fast-path usage appears exactly when the ingredient is enabled.
    assert by_protocol["linear-pbft"]["fast_blocks"] == 0
    assert by_protocol["linear-pbft-fast"]["fast_blocks"] > 0
    assert by_protocol["sbft-c0"]["fast_blocks"] > 0


def test_ablation_with_failures(benchmark, scale):
    failures = max(1, scale.f // 8)

    def run():
        return ablation_rows(scale, failures, protocols=["linear-pbft-fast", "sbft-c0", "sbft-c8"])

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    attach_rows(benchmark, rows)
    by_protocol = {row["protocol"]: row for row in rows}
    # Ingredient 4: only the c>0 variant keeps the fast path under failures.
    assert by_protocol["sbft-c8"]["fast_blocks"] > 0
    assert by_protocol["sbft-c0"]["fast_blocks"] == 0
    # And it is at least as fast as the c=0 variant that fell back.
    assert by_protocol["sbft-c8"]["mean_latency_ms"] <= by_protocol["sbft-c0"]["mean_latency_ms"]
