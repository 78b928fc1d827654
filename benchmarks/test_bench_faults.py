"""Performance under failure and the view-change study as benchmarks.

The throughput grid's ``faults`` panel (Section VIII): one row per
(protocol, scripted fault timeline) point, each carrying the windowed
throughput/latency timeline and the before/during/after-fault phase
aggregates next to the harness wall-clock.  Its ``primary`` panel (Section
V-G, footnote 3, in miniature): trials of a crashed, silent and
equivocating primary, each of which must keep liveness through a view
change.  ``REPRO_BENCH_SCALE`` picks the sizes like the other benchmarks.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from conftest import attach_rows
from repro.experiments import harness, throughput
from repro.experiments.throughput import SWEEP, summarize


@pytest.mark.parametrize("protocol", throughput.FAULTS.protocols)
def test_fault_sweep(benchmark, scale_name, protocol):
    faults = replace(throughput.panel(scale_name, "faults"), protocols=(protocol,))
    rows = benchmark.pedantic(lambda: harness.run(SWEEP, faults.points()), rounds=1, iterations=1)
    # The timeline payloads are too wide for the printed table; attach a
    # compact view and keep the full rows in extra_info via the JSON output.
    compact = [
        {k: v for k, v in row.items() if k not in ("timeline", "phases")} for row in rows
    ]
    attach_rows(benchmark, compact)

    assert len(rows) == len(faults.faults)
    for row in rows:
        assert row["all_completed"], f"requests lost at {row['label']}"
        assert row["recovered"], f"no post-fault progress at {row['label']}"
        # A row whose workload outran the scripted timeline measures nothing.
        assert row["faults_fired"] == row["faults_planned"], f"faults skipped at {row['label']}"
        assert row["timeline"], f"missing timeline at {row['label']}"
        assert set(row["phases"]) == {"before", "during", "after"}


def test_viewchange_robustness(benchmark, scale_name):
    primary = throughput.panel(scale_name, "primary")
    rows = benchmark.pedantic(lambda: harness.run(SWEEP, primary.points()), rounds=1,
                              iterations=1)
    attach_rows(benchmark, rows)

    summary = summarize(rows)
    assert list(summary) == [fault.name for fault in primary.faults]
    for fault, stats in summary.items():
        assert stats["success_rate"] == 1.0, f"liveness lost under {fault} primary"
    assert all(row["max_view"] >= 1 for row in rows)


def test_viewchange_latency_cost(benchmark):
    """A single crash-primary trial, timed: the cost of one view change."""
    primary = throughput.panel("small", "primary")
    points = replace(primary, faults=primary.faults[:1], trials=1).points()
    rows = benchmark.pedantic(lambda: harness.run(SWEEP, points), rounds=1, iterations=1)
    attach_rows(benchmark, rows)
    assert rows[0]["all_completed"]
    assert rows[0]["max_view"] >= 1
