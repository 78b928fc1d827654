"""Tests for the experiment drivers (run at a tiny scale so they stay fast)."""

import itertools
import json
import types

from repro.experiments.ablation import INGREDIENT_BY_PROTOCOL, run_ablation
from repro.experiments.fig2_throughput import run_figure2, scaled_failures, throughput_series
from repro.experiments.fig3_latency import latency_curves, run_figure3
from repro.experiments.harness import (
    ExperimentScale,
    SCALES,
    SMALL_SCALE,
    format_table,
    run_kv_point,
)
from repro.experiments.smart_contracts import (
    run_smart_contract_benchmark,
    single_node_baseline,
    slowdown_vs_baseline,
)
from repro.experiments.viewchange_study import run_viewchange_study, summarize

TINY = ExperimentScale(
    name="tiny",
    f=1,
    c_for_sbft_c8=1,
    client_counts=(2,),
    requests_per_client=2,
    block_batch=2,
    max_sim_time=120.0,
)


def test_scales_registry():
    assert set(SCALES) == {"small", "medium", "paper"}
    assert SCALES["paper"].f == 64
    assert SCALES["paper"].n_c8 == 209          # the paper's deployment size
    assert SMALL_SCALE.n_c0 == 3 * SMALL_SCALE.f + 1


def test_scaled_failures_preserve_ratios():
    failures = scaled_failures(SCALES["paper"])
    assert failures == [0, 8, 64]
    assert scaled_failures(TINY) == [0, 1]


def test_run_kv_point_returns_cluster_result():
    result = run_kv_point("sbft-c0", TINY, num_clients=2, kv_batch=2)
    assert result.run.completed_requests == 4
    assert result.throughput > 0


def test_figure2_rows_cover_the_grid():
    rows = run_figure2(
        scale=TINY,
        protocols=["sbft-c0", "pbft"],
        batch_modes={"no batch": 1},
        failures=[0],
        client_counts=[2],
        topology="lan",
    )
    assert len(rows) == 2
    assert {row["protocol"] for row in rows} == {"sbft-c0", "pbft"}
    for row in rows:
        assert row["throughput_ops"] > 0
        assert row["mode"] == "no batch"
    series = throughput_series(rows, mode="no batch", failures=0)
    assert set(series) == {"sbft-c0", "pbft"}


def test_figure3_reuses_rows_and_builds_curves():
    rows = run_figure2(
        scale=TINY,
        protocols=["sbft-c0"],
        batch_modes={"no batch": 1},
        failures=[0],
        client_counts=[2],
        topology="lan",
    )
    same = run_figure3(rows=rows)
    assert same is rows
    curves = latency_curves(rows, mode="no batch", failures=0)
    assert "sbft-c0" in curves
    throughput, latency_ms = curves["sbft-c0"][0]
    assert throughput > 0 and latency_ms > 0


def test_single_node_baseline_positive_throughput():
    baseline = single_node_baseline(num_transactions=200)
    assert baseline["transactions"] == 200
    assert baseline["throughput_tps"] > 0


def test_smart_contract_benchmark_rows_and_slowdowns():
    rows = run_smart_contract_benchmark(
        f=1,
        c_sbft=1,
        num_clients=2,
        num_transactions=150,
        topologies=("continent",),
        protocols=("sbft-c8", "pbft"),
        block_batch=2,
        max_sim_time=240.0,
    )
    labels = [row["label"] for row in rows]
    assert "single-node baseline" in labels
    assert any("sbft-c8" in label for label in labels)
    assert any("pbft" in label for label in labels)
    slowdowns = slowdown_vs_baseline(rows)
    # Replication always costs something relative to unreplicated execution.
    assert all(value >= 1.0 for value in slowdowns.values())


def test_ablation_rows_track_ingredients_and_paths():
    rows = run_ablation(
        scale=TINY,
        num_clients=2,
        kv_batch=2,
        failure_counts=(0,),
        topology="lan",
        protocols=["linear-pbft", "sbft-c0"],
    )
    assert len(rows) == 2
    by_protocol = {row["protocol"]: row for row in rows}
    # Without the fast path every block commits on the slow path, and vice versa.
    assert by_protocol["linear-pbft"]["slow_blocks"] > 0
    assert by_protocol["linear-pbft"]["fast_blocks"] == 0
    assert by_protocol["sbft-c0"]["fast_blocks"] > 0
    assert set(INGREDIENT_BY_PROTOCOL) == {
        "pbft",
        "linear-pbft",
        "linear-pbft-fast",
        "sbft-c0",
        "sbft-c8",
    }


def test_viewchange_study_reports_success():
    rows = run_viewchange_study(faults=("crash",), trials_per_fault=1, f=1)
    assert len(rows) == 1
    assert rows[0]["all_completed"]
    assert rows[0]["max_view"] >= 1
    summary = summarize(rows)
    assert summary["crash"]["success_rate"] == 1.0


def test_client_sweep_rows_cover_grid_and_match_schema():
    from repro.experiments.client_sweep import ROW_SCHEMA, run_client_sweep

    rows = run_client_sweep(
        scale_name="small", protocols=["sbft-c0"], client_counts=[4], seed=2
    )
    assert [row["policy"] for row in rows] == ["fixed", "adaptive"]
    for row in rows:
        assert row["all_completed"]
        assert row["clients"] == 4
        # The --help row schema documents every key a row actually carries.
        assert set(row) <= set(ROW_SCHEMA), sorted(set(row) - set(ROW_SCHEMA))


def test_client_sweep_cli_output_and_gate_roundtrip(tmp_path, monkeypatch):
    from repro.experiments import harness
    from repro.experiments.client_sweep import main

    # A stub clock that advances 1 ms per reading.  The points are ~10 ms
    # runs, and on real CPU time one of them gated against itself strays past
    # the 2.0x limit about one suite run in five; with the stub both passes
    # measure the same cost and the round trip is decidable.
    ticks = itertools.count()

    def clock():
        return next(ticks) * 1e-3

    stub = types.SimpleNamespace(perf_counter=clock, process_time=clock)
    monkeypatch.setattr(harness, "time", stub)

    output = tmp_path / "bench.json"
    argv = ["--scale", "small", "--protocols", "sbft-c0", "--clients", "4",
            "--seed", "2", "--output", str(output)]
    assert main(argv) == 0
    document = json.loads(output.read_text())
    assert {b["extra_info"]["policy"] for b in document["benchmarks"]} == {"fixed", "adaptive"}
    # Gating a run against its own output passes (ratio exactly 1.0) ...
    gate = argv[:-2] + ["--check-against", str(output)]
    assert main(gate) == 0
    assert main(gate + ["--max-regression", "1.0"]) == 0
    # ... and the gate does fail when the limit is below the measured ratio.
    assert main(gate + ["--max-regression", "0.5"]) == 1


def test_sweep_row_schemas_document_actual_keys():
    """The --help epilogs of the other sweep CLIs list every row key."""
    from repro.experiments.fault_sweep import ROW_SCHEMA as FAULT_SCHEMA
    from repro.experiments.fault_sweep import run_fault_sweep
    from repro.experiments.scale_sweep import ROW_SCHEMA as SCALE_SCHEMA
    from repro.experiments.scale_sweep import run_scale_sweep
    from repro.experiments.smart_contracts import ROW_SCHEMA as CONTRACT_SCHEMA
    from repro.experiments.smart_contracts import run_smart_contract_sweep

    scale_rows = run_scale_sweep(scale_name="small", f_values=[1], num_clients=2)
    fault_rows = run_fault_sweep(scale_name="small", protocols=["sbft-c0"],
                                 scenarios=["crash-backups"])
    contract_rows = run_smart_contract_sweep(
        scale_name="small", protocols=["pbft"], topologies=["continent"],
        f_values=[1], num_transactions=60, num_clients=2,
    )
    for rows, schema in ((scale_rows, SCALE_SCHEMA), (fault_rows, FAULT_SCHEMA),
                         (contract_rows, CONTRACT_SCHEMA)):
        for row in rows:
            assert set(row) <= set(schema), sorted(set(row) - set(schema))


def test_format_table_renders_rows():
    table = format_table([{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}])
    lines = table.splitlines()
    assert len(lines) == 4
    assert "a" in lines[0] and "b" in lines[0]
    assert format_table([]) == "(no rows)"


def test_profile_point_and_table_roundtrip():
    from repro.experiments.profile import (
        ROW_COLUMNS,
        format_profile_table,
        profile_point,
        top_cumulative,
    )

    profiler = profile_point(protocol="sbft-c0", f=1, num_clients=2, kv_batch=2)
    rows = top_cumulative(profiler, top=10)
    assert 0 < len(rows) <= 10
    cumtimes = [row["cumtime_s"] for row in rows]
    assert cumtimes == sorted(cumtimes, reverse=True)
    for row in rows:
        assert set(row) == set(ROW_COLUMNS)
        # Locations are normalized to be machine-independent.
        assert not row["function"].startswith("/")
    # The run itself should dominate the cumulative table.
    assert any("run_kv_point" in row["function"] for row in rows)

    text = format_profile_table(rows)
    lines = text.splitlines()
    assert len(lines) == 2 + len(rows)
    assert lines[0].split() == list(ROW_COLUMNS)

    markdown = format_profile_table(rows, markdown=True)
    md_lines = markdown.splitlines()
    assert len(md_lines) == 2 + len(rows)
    assert all(line.startswith("|") and line.endswith("|") for line in md_lines)


def test_profile_location_normalization():
    from repro.experiments.profile import _normalize_location

    assert (
        _normalize_location("/abs/path/src/repro/sim/events.py", 42, "run")
        == "repro/sim/events.py:42(run)"
    )
    assert _normalize_location("~", 0, "heappush") == "<built-in> heappush"
    assert (
        _normalize_location("C:\\ci\\src\\repro\\sim\\events.py", 7, "step")
        == "repro/sim/events.py:7(step)"
    )
    assert _normalize_location("/somewhere/else/mod.py", 3, "f") == "mod.py:3(f)"
