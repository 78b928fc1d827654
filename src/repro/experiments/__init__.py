"""Experiment drivers — the measurements of the paper (Sections VIII and IX).

Every module but :mod:`repro.experiments.harness` defines a ``SWEEP`` that
the one grid runner runs (``python -m repro.experiments.<module> --help``):

* :mod:`repro.experiments.harness` — the one sweep-point record (``Point``)
  and its one runner (``run_point``), the one grid runner, the sweep CLI and
  the ``--check-against`` baseline gate.
* :mod:`repro.experiments.throughput` — every fixed grid of cluster points,
  as panels of one grid: Figures 2 and 3 and the per-ingredient ablation,
  the scale column, the client axis (fixed vs adaptive batching with
  pipelined clients), the smart-contract table with its unreplicated
  baseline, Section VIII performance under scripted fault timelines and the
  Section V-G view-change study (``BENCH_throughput.json``).

The sweep takes ``--scale small|medium|paper`` so the same code runs both
the quick CI-sized configuration and larger paper-sized ones.
"""

from repro.experiments.harness import Point, format_table, run_point

__all__ = ["Point", "format_table", "run_point"]
