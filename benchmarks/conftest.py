"""Shared configuration for the benchmark suite.

Every benchmark regenerates (a scaled-down version of) one table or figure of
the paper.  The scale is controlled by the ``REPRO_BENCH_SCALE`` environment
variable:

* ``small`` (default) — the committed baselines' scale; the whole suite
  runs in about a minute.
* ``medium`` — f=8 Figure 2 panels; tens of minutes.
* ``paper``  — f=64, the paper's deployment sizes; hours (intended for
  overnight runs; the shapes are already visible at smaller scales).

Any other name fails the session instead of running ``small``.  The
throughput benchmarks run panels of :data:`repro.experiments.throughput.SCALES`
at that scale.

Each benchmark prints the rows it produced (they are also attached to
``benchmark.extra_info`` so they appear in ``--benchmark-json`` output);
docs/benchmarks.md describes the committed ``BENCH_*.json`` baselines.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.throughput import SCALES

#: The one reading of ``REPRO_BENCH_SCALE``; every sweep benchmark runs the
#: sweep's scale of this name.
SCALE_NAME = os.environ.get("REPRO_BENCH_SCALE", "small")
if SCALE_NAME not in SCALES:
    raise pytest.UsageError(
        f"REPRO_BENCH_SCALE={SCALE_NAME!r} is not a scale (known: {', '.join(SCALES)})"
    )


@pytest.fixture(scope="session")
def scale_name() -> str:
    return SCALE_NAME


def attach_rows(benchmark, rows):
    """Record result rows on the benchmark and print them for the log."""
    benchmark.extra_info["rows"] = rows
    from repro.experiments.harness import format_table

    print()
    print(format_table(rows))
