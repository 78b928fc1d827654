"""Experiment drivers — one module per figure/table of the paper (Section IX).

Every module but :mod:`repro.experiments.harness` defines a ``SWEEP`` that
the one grid runner runs (``python -m repro.experiments.<module> --help``):

* :mod:`repro.experiments.harness` — shared scales, the one sweep-point
  record (``Point``) and its one runner (``run_point``), the one grid
  runner, the sweep CLI and the ``--check-against`` baseline gate.
* :mod:`repro.experiments.scale_sweep` — throughput per replica count
  (``BENCH_scale_sweep.json``).
* :mod:`repro.experiments.client_sweep` — the client-scaling axis, fixed vs
  adaptive batching with pipelined clients (``BENCH_client_sweep.json``).
* :mod:`repro.experiments.fault_sweep` — Section VIII performance under
  scripted fault timelines (``BENCH_fault_sweep.json``).
* :mod:`repro.experiments.smart_contracts` — the smart-contract benchmark
  (continent / world WAN tables plus the unreplicated baseline;
  ``BENCH_smart_contracts.json``).
* :mod:`repro.experiments.fig2_throughput` — Figures 2 and 3 (throughput vs
  clients, latency vs throughput) and the per-ingredient ablation.
* :mod:`repro.experiments.viewchange_study` — view-change robustness study.

The sized sweeps take ``--scale small|medium|paper`` so the same code runs
both the quick CI-sized configuration and larger paper-sized ones.
"""

from repro.experiments.harness import ExperimentScale, Point, format_table, run_point

__all__ = ["ExperimentScale", "Point", "format_table", "run_point"]
