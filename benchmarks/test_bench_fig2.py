"""Figure 2 — throughput per number of clients, per protocol, per failure mode.

The paper's grid is (batch mode) x (failures) x (protocol) x (clients), the
``figures`` panel of the throughput sweep.  The benchmark runs a cut of it:
the batched mode at every client count for each protocol with no failures,
plus one failure scenario, and prints the throughput rows.  The
per-protocol single-point benchmarks make the headline comparison
(throughput under load) visible directly in the pytest-benchmark table.
"""

from __future__ import annotations

import pytest

from conftest import attach_rows
from repro.experiments import harness, throughput
from repro.experiments.throughput import throughput_series
from repro.protocols.registry import PAPER_ORDER

KV_BATCH = 8  # stands in for the paper's batch=64 request payload


def figure2_rows(scale_name, protocols, failures, client_counts):
    points = throughput.grid(scale_name, panels=("figures",), protocols=protocols,
                             kv_batch=(KV_BATCH,), failures=(failures,), clients=client_counts)
    return harness.run(throughput.SWEEP, points)


@pytest.mark.parametrize("protocol", PAPER_ORDER)
def test_fig2_throughput_under_load(benchmark, scale_name, protocol):
    """One Figure-2 point per protocol: the largest client count, no failures."""
    figures = throughput.panel(scale_name, "figures")

    def run():
        return figure2_rows(scale_name, [protocol], 0, [max(figures.clients)])

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    attach_rows(benchmark, rows)
    assert rows[0]["completed_operations"] > 0


@pytest.mark.parametrize("failures_kind", ["none", "few"])
def test_fig2_grid(benchmark, scale_name, failures_kind):
    """A (clients x protocol) panel of Figure 2 for one failure scenario."""
    figures = throughput.panel(scale_name, "figures")
    failure_options = figures.faults
    failures = 0 if failures_kind == "none" else failure_options[1] if len(failure_options) > 1 else 0

    def run():
        return figure2_rows(scale_name, PAPER_ORDER, failures, figures.clients)

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    attach_rows(benchmark, rows)

    series = throughput_series(rows, kv_batch=KV_BATCH, failures=failures)
    assert set(series) == set(PAPER_ORDER)
    # Every protocol completed work at every client count.
    for protocol, values in series.items():
        assert len(values) == len(figures.clients)
        assert all(value > 0 for value in values)
