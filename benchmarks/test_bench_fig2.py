"""Figure 2 — throughput per number of clients, per protocol, per failure mode.

The paper's grid is (batch mode) x (failures) x (protocol) x (clients).  The
default benchmark runs a scaled-down grid: the batched mode at every client
count for each protocol with no failures, plus one failure scenario, and
prints the throughput rows.  The per-protocol single-point benchmarks make the
headline comparison (throughput under load) visible directly in the
pytest-benchmark table.
"""

from __future__ import annotations

import pytest

from conftest import attach_rows
from repro.experiments import fig2_throughput, harness
from repro.experiments.fig2_throughput import scaled_failures, throughput_series
from repro.protocols.registry import PAPER_ORDER

KV_BATCH = 8  # stands in for the paper's batch=64 request payload


def figure2_rows(scale, protocols, failures, client_counts):
    points = fig2_throughput.grid(
        scale=scale,
        protocols=protocols,
        batch_modes=[KV_BATCH],
        failures=[failures],
        client_counts=client_counts,
    )
    return harness.run(fig2_throughput.SWEEP, points)


@pytest.mark.parametrize("protocol", PAPER_ORDER)
def test_fig2_throughput_under_load(benchmark, scale, protocol):
    """One Figure-2 point per protocol: the largest client count, no failures."""

    def run():
        return figure2_rows(scale, [protocol], 0, [max(scale.client_counts)])

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    attach_rows(benchmark, rows)
    assert rows[0]["completed_operations"] > 0


@pytest.mark.parametrize("failures_kind", ["none", "few"])
def test_fig2_grid(benchmark, scale, failures_kind):
    """A (clients x protocol) panel of Figure 2 for one failure scenario."""
    failure_options = scaled_failures(scale)
    failures = 0 if failures_kind == "none" else failure_options[1] if len(failure_options) > 1 else 0

    def run():
        return figure2_rows(scale, PAPER_ORDER, failures, list(scale.client_counts))

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    attach_rows(benchmark, rows)

    series = throughput_series(rows, kv_batch=KV_BATCH, failures=failures)
    assert set(series) == set(PAPER_ORDER)
    # Every protocol completed work at every client count.
    for protocol, values in series.items():
        assert len(values) == len(scale.client_counts)
        assert all(value > 0 for value in values)
