"""View-change robustness — the paper's footnote-3 study in miniature.

The paper reports tens of thousands of view changes with faulty primaries
(partial, equivocating, stale information).  The benchmark runs a batch of
trials per primary-fault type and checks that every trial preserved liveness
(all requests completed) and that a view change actually happened.
"""

from __future__ import annotations


from conftest import attach_rows
from repro.experiments import harness
from repro.experiments.viewchange_study import PRIMARY_FAULTS, SWEEP, grid, summarize


def test_viewchange_robustness(benchmark, scale_name):
    points = grid(faults=PRIMARY_FAULTS, trials_per_fault=2 if scale_name == "small" else 1, f=1)
    rows = benchmark.pedantic(lambda: harness.run(SWEEP, points), rounds=1, iterations=1)
    attach_rows(benchmark, rows)

    summary = summarize(rows)
    assert list(summary) == list(PRIMARY_FAULTS)
    for fault, stats in summary.items():
        assert stats["success_rate"] == 1.0, f"liveness lost under {fault} primary"
    assert all(row["max_view"] >= 1 for row in rows)


def test_viewchange_latency_cost(benchmark):
    """A single crash-primary trial, timed: the cost of one view change."""
    points = grid(faults=("crash",), trials_per_fault=1, f=1)
    rows = benchmark.pedantic(lambda: harness.run(SWEEP, points), rounds=1, iterations=1)
    attach_rows(benchmark, rows)
    assert rows[0]["all_completed"]
    assert rows[0]["max_view"] >= 1
