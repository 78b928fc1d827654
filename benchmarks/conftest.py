"""Shared configuration for the benchmark suite.

Every benchmark regenerates (a scaled-down version of) one table or figure of
the paper.  The scale is controlled by the ``REPRO_BENCH_SCALE`` environment
variable:

* ``small`` (default) — f=2, a couple of client counts; the whole suite runs
  in a few minutes on a laptop.
* ``medium`` — f=8; tens of minutes.
* ``paper``  — f=64, the paper's deployment sizes; hours (intended for
  overnight runs; the shapes are already visible at smaller scales).

Each benchmark prints the rows it produced (they are also attached to
``benchmark.extra_info`` so they appear in ``--benchmark-json`` output);
docs/benchmarks.md describes the committed ``BENCH_*.json`` baselines.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.harness import SCALES, ExperimentScale

#: Benchmark-sized "small" scale: slightly lighter than the experiments' small
#: scale so that the quadratic PBFT runs stay quick.
BENCH_SMALL = ExperimentScale(
    name="bench-small",
    f=2,
    client_counts=(4, 16, 32),
    requests_per_client=3,
    block_batch=8,
    max_sim_time=300.0,
)


def _resolve_scale() -> ExperimentScale:
    name = os.environ.get("REPRO_BENCH_SCALE", "small")
    if name == "small":
        return BENCH_SMALL
    return SCALES.get(name, BENCH_SMALL)


@pytest.fixture(scope="session")
def scale() -> ExperimentScale:
    return _resolve_scale()


def attach_rows(benchmark, rows):
    """Record result rows on the benchmark and print them for the log."""
    benchmark.extra_info["rows"] = rows
    from repro.experiments.harness import format_table

    print()
    print(format_table(rows))
