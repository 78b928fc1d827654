"""Scale sweep — throughput and wall-clock as the replica count grows.

The first ``BENCH_*.json`` trajectory series: one fig2-style point per
replication factor, recording simulated throughput *and* harness wall-clock
(the quantity the hot-path work optimizes).  ``REPRO_BENCH_SCALE`` picks the
sweep: ``small`` reaches n=25, ``medium`` n=49 and ``paper`` n=193 — the
order of the paper's ~200-replica deployments.
"""

from __future__ import annotations

import pytest

from conftest import attach_rows
from repro.experiments import harness
from repro.experiments.scale_sweep import SWEEP, SWEEP_F_VALUES, grid


@pytest.mark.parametrize("protocol", ["sbft-c0", "sbft-c8"])
def test_scale_sweep(benchmark, scale_name, protocol):
    def run():
        return harness.run(SWEEP, grid(scale_name=scale_name, protocols=[protocol]))

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    attach_rows(benchmark, rows)

    assert len(rows) == len(SWEEP_F_VALUES[scale_name])
    for row in rows:
        assert row["completed_operations"] > 0, f"no progress at {row['label']}"
    # Linear communication: messages grow with n, but the per-point run must
    # still finish within the simulated deadline at every swept size.
    ns = [row["n"] for row in rows]
    assert ns == sorted(ns)


def _stable(rows):
    """Strip the host-clock keys (they vary run to run)."""
    return [{k: v for k, v in row.items() if k not in harness.HOST_FIELDS} for row in rows]


def test_scale_sweep_deterministic():
    """The sweep is a pure function of its seed (same rows, same numbers)."""
    points = grid(scale_name="small", protocols=["sbft-c0"], f_values=(1, 2), seed=3)
    assert _stable(harness.run(SWEEP, points)) == _stable(harness.run(SWEEP, points))


def test_scale_sweep_parallel_jobs_match_serial():
    """--jobs N must produce rows identical to serial execution."""
    points = grid(scale_name="small", protocols=["sbft-c0"], f_values=(1, 2), seed=3)
    assert _stable(harness.run(SWEEP, points)) == _stable(harness.run(SWEEP, points, jobs=2))
