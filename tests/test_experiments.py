"""Tests for the experiment drivers (run at a tiny scale so they stay fast)."""

import ast
import copy
import dataclasses
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro.experiments
from repro.adversary import search
from repro.experiments import (
    client_sweep,
    fault_sweep,
    fig2_throughput,
    harness,
    scale_sweep,
    smart_contracts,
    viewchange_study,
)
from repro.experiments.fig2_throughput import latency_curves, scaled_failures, throughput_series
from repro.errors import ConfigurationError
from repro.experiments.harness import (
    KV,
    SCALES,
    SMALL_SCALE,
    ExperimentScale,
    Point,
    format_table,
    run_point,
)
from repro.experiments.smart_contracts import single_node_baseline, slowdown_vs_baseline
from repro.experiments.viewchange_study import summarize
from repro.protocols.registry import PAPER_ORDER, PROTOCOLS, protocol_sizes

REPO = Path(__file__).resolve().parent.parent

TINY = ExperimentScale(
    name="tiny",
    f=1,
    client_counts=(2,),
    requests_per_client=2,
    block_batch=2,
    max_sim_time=120.0,
)


def test_every_experiment_module_but_the_harness_defines_a_sweep():
    modules = [info.name for info in pkgutil.iter_modules(repro.experiments.__path__)]
    assert "fig2_throughput" in modules and "harness" in modules
    for name in modules:
        sweep = getattr(importlib.import_module(f"repro.experiments.{name}"), "SWEEP", None)
        assert isinstance(sweep, harness.Sweep) == (name != "harness"), name


def test_scales_registry():
    assert set(SCALES) == {"small", "medium", "paper"}
    assert SCALES["paper"].f == 64
    assert protocol_sizes("sbft-c8", 64) == (209, 8)    # the paper's deployment size
    assert protocol_sizes("sbft-c0", SMALL_SCALE.f) == (3 * SMALL_SCALE.f + 1, 0)


def test_scaled_failures_preserve_ratios():
    failures = scaled_failures(SCALES["paper"])
    assert failures == [0, 8, 64]
    assert scaled_failures(TINY) == [0, 1]


def test_run_point_returns_cluster_result():
    point = Point(protocol="sbft-c0", f=TINY.f, clients=2,
                  workload=KV(requests=TINY.requests_per_client, batch=2), label="tiny",
                  block_batch=TINY.block_batch, max_sim_time=TINY.max_sim_time)
    result = run_point(point)
    assert result.run.completed_requests == 4
    assert result.throughput > 0
    assert result.run.label == "tiny" and result.decision_hash is None


def tiny_figure2_points(protocols):
    """Unbatched, failure-free Figure 2 points at two clients on a LAN."""
    return fig2_throughput.grid(
        scale=TINY, protocols=protocols, batch_modes=[1], failures=[0], client_counts=[2],
        topology="lan",
    )


def tiny_figure2(protocols):
    return harness.run(fig2_throughput.SWEEP, tiny_figure2_points(protocols))


def test_figure2_rows_cover_the_grid():
    rows = tiny_figure2(["sbft-c0", "pbft"])
    assert len(rows) == 2
    assert {row["protocol"] for row in rows} == {"sbft-c0", "pbft"}
    for row in rows:
        assert row["throughput_ops"] > 0
        assert row["kv_batch"] == 1
    series = throughput_series(rows, kv_batch=1, failures=0)
    assert set(series) == {"sbft-c0", "pbft"}


def test_figure3_curves_come_from_the_figure2_rows():
    rows = tiny_figure2(["sbft-c0"])
    curves = latency_curves(rows, kv_batch=1, failures=0)
    assert "sbft-c0" in curves
    throughput, latency_ms = curves["sbft-c0"][0]
    assert throughput > 0 and latency_ms > 0


def test_single_node_baseline_positive_throughput():
    baseline = single_node_baseline(num_transactions=200)
    assert baseline["transactions"] == 200
    assert baseline["throughput_tps"] > 0


def test_smart_contract_sweep_rows_and_slowdowns(capsys):
    points = smart_contracts.grid(
        f_values=(1,),
        num_transactions=150,
        topologies=("continent",),
        protocols=("sbft-c8", "pbft"),
        clients=2,
        block_batch=2,
    )
    rows = harness.run(smart_contracts.SWEEP, points)
    assert [row["label"] for row in rows] == ["sbft-c8/continent/f=1", "pbft/continent/f=1"]
    slowdowns = slowdown_vs_baseline(single_node_baseline(), rows)
    assert set(slowdowns) == {row["label"] for row in rows}
    # Replication always costs something relative to unreplicated execution.
    assert all(value >= 1.0 for value in slowdowns.values())
    assert smart_contracts.SWEEP.report(None, points, rows) == 0
    assert "single-node baseline" in capsys.readouterr().out


def test_ablation_rows_track_ingredients_and_paths():
    rows = tiny_figure2(["linear-pbft", "sbft-c0"])
    assert len(rows) == 2
    by_protocol = {row["protocol"]: row for row in rows}
    # Without the fast path every block commits on the slow path, and vice versa.
    assert by_protocol["linear-pbft"]["slow_blocks"] > 0
    assert by_protocol["linear-pbft"]["fast_blocks"] == 0
    assert by_protocol["sbft-c0"]["fast_blocks"] > 0
    # The registry names the ingredient each variant adds.
    assert set(PROTOCOLS) == set(PAPER_ORDER)
    assert all(PROTOCOLS[name].description for name in PAPER_ORDER)


def test_viewchange_study_reports_success(capsys):
    points = viewchange_study.grid(faults=("crash",), trials_per_fault=1, f=1)
    rows = harness.run(viewchange_study.SWEEP, points)
    assert len(rows) == 1
    assert rows[0]["all_completed"]
    assert rows[0]["max_view"] >= 1
    summary = summarize(rows)
    assert summary["crash"]["success_rate"] == 1.0
    assert viewchange_study.SWEEP.report(None, points, rows) == 0
    assert "crash" in capsys.readouterr().out


def test_viewchange_summary_keeps_row_order_under_any_hash_seed():
    """The per-fault summary follows the rows, not the interpreter's str hashes."""
    script = (
        "from repro.experiments.viewchange_study import summarize\n"
        "rows = [dict(fault=fault, all_completed=True, view_changes=1)\n"
        "        for fault in ('crash', 'silent', 'equivocate')]\n"
        "print(' '.join(summarize(rows)))\n"
    )
    env = dict(os.environ, PYTHONHASHSEED="1", PYTHONPATH=str(REPO / "src"))
    output = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert output.split() == ["crash", "silent", "equivocate"]


@pytest.mark.parametrize(
    "sweep, points",
    [
        (fig2_throughput.SWEEP, tiny_figure2_points(["sbft-c0", "pbft"])),
        (viewchange_study.SWEEP, viewchange_study.grid(faults=("crash",), trials_per_fault=2)),
    ],
    ids=["fig2", "viewchange"],
)
def test_worker_processes_produce_the_serial_rows(sweep, points):
    """--jobs 2 runs two points in worker processes; rows equal a serial run
    outside the host clocks."""

    def simulated(rows):
        return [{k: v for k, v in row.items() if k not in harness.HOST_FIELDS} for row in rows]

    assert simulated(harness.run(sweep, points, jobs=2)) == simulated(harness.run(sweep, points))


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


#: Every sweep with a committed baseline, and the file (the view-change
#: study takes no ``--scale``).
BASELINES = {
    scale_sweep: "BENCH_scale_sweep.json",
    client_sweep: "BENCH_client_sweep.json",
    smart_contracts: "BENCH_smart_contracts.json",
    fault_sweep: "BENCH_fault_sweep.json",
    fig2_throughput: "BENCH_fig2.json",
    viewchange_study: "BENCH_viewchange.json",
    search: "BENCH_adversary_search.json",
}


@pytest.mark.parametrize("sweep", BASELINES)
def test_committed_baseline_equals_a_fresh_small_sweep(sweep):
    """A stale BENCH_*.json fails pytest, not only the CI bench-smoke job."""
    scale = ["--scale", "small"] if sweep.SWEEP.scales else []
    argv = scale + ["--check-against", str(REPO / BASELINES[sweep])]
    assert harness.main(sweep.SWEEP, argv) == 0


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


#: Every sweep that takes ``--scale``, by its grid.
SIZED_SWEEPS = [scale_sweep, fig2_throughput, fault_sweep, client_sweep, smart_contracts]


@pytest.mark.parametrize("sweep", SIZED_SWEEPS, ids=lambda module: module.__name__.rsplit(".")[-1])
def test_an_unknown_scale_name_fails_instead_of_running_small(sweep):
    assert set(sweep.SWEEP.scales) == {"small", "medium", "paper"}
    with pytest.raises(ConfigurationError, match="unknown scale 'medum'"):
        sweep.grid(scale_name="medum")


def _cluster_runners(path):
    """The functions of ``path`` that call ``build_cluster`` (or ``Cluster``)
    or ``.run`` on a name bound to what it returned."""
    runners = []
    for function in ast.walk(ast.parse(path.read_text())):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        calls = [node for node in ast.walk(function) if isinstance(node, ast.Call)]
        built = {
            target.id
            for node in ast.walk(function) if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call) and isinstance(node.value.func, ast.Name)
            and node.value.func.id in ("build_cluster", "Cluster")
            for target in node.targets if isinstance(target, ast.Name)
        }
        if any(
            (isinstance(call.func, ast.Name) and call.func.id in ("build_cluster", "Cluster"))
            or (isinstance(call.func, ast.Attribute) and call.func.attr == "run"
                and isinstance(call.func.value, ast.Name) and call.func.value.id in built)
            for call in calls
        ):
            runners.append(f"{path.stem}.{function.name}")
    return runners


def test_one_function_builds_and_runs_every_experiment_cluster():
    """``harness.run_point`` is the only code under ``src/repro`` that builds
    a cluster or runs one, apart from ``build_cluster`` itself."""
    package = REPO / "src" / "repro"
    runners = [runner for path in sorted(package.rglob("*.py"))
               for runner in _cluster_runners(path)]
    assert runners == ["harness.run_point", "cluster.build_cluster"]
