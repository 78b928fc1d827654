"""Ingredient ablation — Section IX's narrative, one row per protocol variant.

The ablation is the throughput sweep's ``figures`` panel at one client count (``fast_blocks`` /
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
from repro.experiments import harness, throughput
from repro.protocols.registry import PAPER_ORDER


def ablation_rows(scale_name, failures, protocols=PAPER_ORDER):
    clients = min(16, max(throughput.panel(scale_name, "figures").clients))
    points = throughput.grid(scale_name, panels=("figures",), protocols=protocols, kv_batch=(8,),
                             failures=(failures,), clients=(clients,))
    return harness.run(throughput.SWEEP, points)


def test_ablation_no_failures(benchmark, scale_name):
    rows = benchmark.pedantic(lambda: ablation_rows(scale_name, 0), rounds=1, iterations=1)
    attach_rows(benchmark, rows)
    by_protocol = {row["protocol"]: row for row in rows}
    assert set(by_protocol) == set(PAPER_ORDER)
    # Fast-path usage appears exactly when the ingredient is enabled.
    assert by_protocol["linear-pbft"]["fast_blocks"] == 0
    assert by_protocol["linear-pbft-fast"]["fast_blocks"] > 0
    assert by_protocol["sbft-c0"]["fast_blocks"] > 0


def test_ablation_with_failures(benchmark, scale_name):
    (f,) = throughput.panel(scale_name, "figures").f
    failures = max(1, f // 8)

    def run():
        return ablation_rows(scale_name, failures,
                             protocols=["linear-pbft-fast", "sbft-c0", "sbft-c8"])

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    attach_rows(benchmark, rows)
    by_protocol = {row["protocol"]: row for row in rows}
    # Ingredient 4: only the c>0 variant keeps the fast path under failures.
    assert by_protocol["sbft-c8"]["fast_blocks"] > 0
    assert by_protocol["sbft-c0"]["fast_blocks"] == 0
    # And it is at least as fast as the c=0 variant that fell back.
    assert by_protocol["sbft-c8"]["mean_latency_ms"] <= by_protocol["sbft-c0"]["mean_latency_ms"]
