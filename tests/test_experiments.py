"""Tests for the experiment drivers (run at a tiny scale so they stay fast)."""

import copy
import dataclasses
import json
from pathlib import Path

import pytest

from repro.experiments import client_sweep, fault_sweep, harness, scale_sweep, smart_contracts
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

REPO = Path(__file__).resolve().parent.parent

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


def test_client_sweep_rows_cover_grid():
    rows = harness.run(
        client_sweep.SWEEP,
        client_sweep.grid(scale_name="small", protocols=["sbft-c0"], clients=[4], seed=2),
    )
    assert [row["policy"] for row in rows] == ["fixed", "adaptive"]
    for row in rows:
        assert row["all_completed"]
        assert row["clients"] == 4


def test_gate_roundtrip_names_the_first_difference(tmp_path, capsys):
    """Real clocks: the gate compares only what the seed determines."""
    output = tmp_path / "bench.json"
    argv = ["--scale", "small", "--protocols", "sbft-c0", "--clients", "4", "--seed", "2"]
    assert harness.main(client_sweep.SWEEP, argv + ["--output", str(output)]) == 0
    document = json.loads(output.read_text())
    assert {b["extra_info"]["policy"] for b in document["benchmarks"]} == {"fixed", "adaptive"}
    # A run gated against its own output passes, whatever the clocks read.
    gate = argv + ["--check-against", str(output)]
    assert harness.main(client_sweep.SWEEP, gate) == 0

    # One more simulated event in one baseline row fails, naming row and key.
    label = "sbft-c0/adaptive/clients=4"
    bumped = copy.deepcopy(document)
    for bench in bumped["benchmarks"]:
        if bench["extra_info"]["label"] == label:
            bench["extra_info"]["events_processed"] += 1
    output.write_text(json.dumps(bumped))
    capsys.readouterr()
    assert harness.main(client_sweep.SWEEP, gate) == 1
    message = capsys.readouterr().out.splitlines()[-1]
    assert message.startswith("FAIL: ") and label in message and "events_processed" in message

    # A baseline that shares no label with the run fails instead of passing silently.
    renamed = copy.deepcopy(document)
    for bench in renamed["benchmarks"]:
        bench["extra_info"]["label"] += "-renamed"
    output.write_text(json.dumps(renamed))
    assert harness.main(client_sweep.SWEEP, gate) == 1
    assert "no sweep point" in capsys.readouterr().out.splitlines()[-1]


def test_gate_reports_a_point_missing_on_either_side_of_a_full_grid():
    rows = [{"label": "a", "x": 1, "wall_seconds": 0.5}, {"label": "b", "x": 2, "wall_seconds": 0.5}]
    baseline = harness.emit_benchmark_json(rows, group="g")
    for row in rows:
        row["wall_seconds"] = 9.0  # host clocks are never compared
    assert harness.check_against_baseline(rows, baseline, full_grid=True)[0]
    # A partial grid gates on the overlap only; a full grid names the lost point.
    assert harness.check_against_baseline(rows[:1], baseline, full_grid=False)[0]
    ok, message = harness.check_against_baseline(rows[:1], baseline, full_grid=True)
    assert not ok and "'b' is missing from the run" in message
    extra = rows + [{"label": "c", "x": 3, "wall_seconds": 0.5}]
    ok, message = harness.check_against_baseline(extra, baseline, full_grid=True)
    assert not ok and "'c' is missing from the baseline" in message


@pytest.mark.parametrize("sweep", [scale_sweep, client_sweep, smart_contracts, fault_sweep])
def test_committed_baseline_equals_a_fresh_small_sweep(sweep):
    """A stale BENCH_*.json fails pytest, not only the CI bench-smoke job."""
    baseline = REPO / f"BENCH_{sweep.__name__.rsplit('.', 1)[1]}.json"
    assert harness.main(sweep.SWEEP, ["--scale", "small", "--check-against", str(baseline)]) == 0


def test_runner_raises_when_rows_and_row_schema_disagree():
    points = scale_sweep.grid(scale_name="small", f_values=[1], clients=2)

    def row_with_undocumented_key(point, result):
        return dict(scale_sweep.scale_row(point, result), undocumented_key=1)

    emits_more = dataclasses.replace(scale_sweep.SWEEP, row=row_with_undocumented_key)
    with pytest.raises(ValueError, match="undocumented_key"):
        harness.run(emits_more, points)
    documents_more = dataclasses.replace(
        scale_sweep.SWEEP, row_schema=dict(scale_sweep.ROW_SCHEMA, ghost_key="never emitted")
    )
    with pytest.raises(ValueError, match="ghost_key"):
        harness.run(documents_more, points)


def test_format_table_renders_rows():
    table = format_table([{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}])
    lines = table.splitlines()
    assert len(lines) == 4
    assert "a" in lines[0] and "b" in lines[0]
    assert format_table([]) == "(no rows)"
