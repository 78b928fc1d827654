"""Experiment drivers — one module per figure/table of the paper (Section IX).

* :mod:`repro.experiments.harness` — shared scales, the one grid runner,
  the sweep CLI and the ``--check-against`` baseline gate.
* :mod:`repro.experiments.scale_sweep` — throughput per replica count
  (``BENCH_scale_sweep.json``).
* :mod:`repro.experiments.client_sweep` — the client-scaling axis, fixed vs
  adaptive batching with pipelined clients (``BENCH_client_sweep.json``).
* :mod:`repro.experiments.fault_sweep` — Section VIII performance under
  scripted fault timelines (``BENCH_fault_sweep.json``).
* :mod:`repro.experiments.smart_contracts` — the smart-contract benchmark
  (continent / world WAN tables plus the unreplicated baseline;
  ``BENCH_smart_contracts.json``).
* :mod:`repro.experiments.fig2_throughput` — Figure 2 (throughput vs clients).
* :mod:`repro.experiments.fig3_latency` — Figure 3 (latency vs throughput).
* :mod:`repro.experiments.ablation` — per-ingredient contribution.
* :mod:`repro.experiments.viewchange_study` — view-change robustness study.

Every driver accepts a ``scale`` knob so the same code runs both the
quick CI-sized configuration and larger paper-sized configurations.
"""

from repro.experiments.harness import ExperimentScale, run_kv_point, format_table

__all__ = ["ExperimentScale", "run_kv_point", "format_table"]
