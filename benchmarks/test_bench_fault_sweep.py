"""Fault sweep — performance under failure as a benchmark (Section VIII).

One row per (protocol, topology, scenario) point of the scripted fault
timelines; rows carry the windowed throughput/latency timeline and the
before/during/after-fault phase aggregates next to the harness wall-clock.
``REPRO_BENCH_SCALE`` picks the sweep size like the other benchmarks.
"""

from __future__ import annotations

import pytest

from conftest import attach_rows
from repro.experiments import harness
from repro.experiments.fault_sweep import DEFAULT_PROTOCOLS, SCENARIOS, SWEEP, grid


@pytest.mark.parametrize("protocol", DEFAULT_PROTOCOLS)
def test_fault_sweep(benchmark, scale_name, protocol):
    def run():
        return harness.run(SWEEP, grid(scale_name=scale_name, protocols=[protocol]))

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    # The timeline payloads are too wide for the printed table; attach a
    # compact view and keep the full rows in extra_info via the JSON output.
    compact = [
        {k: v for k, v in row.items() if k not in ("timeline", "phases")} for row in rows
    ]
    attach_rows(benchmark, compact)

    assert len(rows) == len(SCENARIOS)
    for row in rows:
        assert row["all_completed"], f"requests lost at {row['label']}"
        assert row["recovered"], f"no post-fault progress at {row['label']}"
        # A row whose workload outran the scripted timeline measures nothing.
        assert row["faults_fired"] == row["faults_planned"], f"faults skipped at {row['label']}"
        assert row["timeline"], f"missing timeline at {row['label']}"
        assert set(row["phases"]) == {"before", "during", "after"}


def _stable(rows):
    """Strip the host-clock keys (they vary run to run)."""
    return [{k: v for k, v in row.items() if k not in harness.HOST_FIELDS} for row in rows]


def test_fault_sweep_deterministic():
    """The sweep is a pure function of its seed (same rows, same timelines)."""
    points = grid(scale_name="small", protocols=["sbft-c0"], scenarios=["faulty-primary"], seed=5)
    assert _stable(harness.run(SWEEP, points)) == _stable(harness.run(SWEEP, points))
