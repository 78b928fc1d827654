"""Scale sweep — throughput and wall-clock as the replica count grows.

The throughput sweep's ``scale`` panel: one Figure 2-style point per
replication factor, recording simulated throughput *and* harness wall-clock
(the quantity the hot-path work optimizes).  ``REPRO_BENCH_SCALE`` picks the
sweep: ``small`` reaches n=25, ``medium`` n=49 and ``paper`` n=193 — the
order of the paper's ~200-replica deployments.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from conftest import attach_rows
from repro.experiments import harness, throughput
from repro.experiments.throughput import SWEEP


@pytest.mark.parametrize("protocol", ["sbft-c0", "sbft-c8"])
def test_scale_sweep(benchmark, scale_name, protocol):
    column = replace(throughput.panel(scale_name, "scale"), protocols=(protocol,))

    def run():
        return harness.run(SWEEP, column.points())

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    attach_rows(benchmark, rows)

    assert len(rows) == len(column.f)
    for row in rows:
        assert row["completed_operations"] > 0, f"no progress at {row['label']}"
    # Linear communication: messages grow with n, but the per-point run must
    # still finish within the simulated deadline at every swept size.
    ns = [row["n"] for row in rows]
    assert ns == sorted(ns)
