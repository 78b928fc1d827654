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
from repro.experiments import harness, throughput
from repro.errors import ConfigurationError
from repro.experiments.harness import KV, Ethereum, Point, format_table, run_point
from repro.experiments.throughput import (
    latency_curves,
    select,
    single_node_baseline,
    slowdown_vs_baseline,
    summarize,
    throughput_series,
)
from repro.protocols.registry import PAPER_ORDER, PROTOCOLS, protocol_sizes

REPO = Path(__file__).resolve().parent.parent

#: A one-point-per-protocol Figure 2 panel: unbatched, failure-free, two
#: clients of two requests each.
TINY = throughput.Panel("figures", PAPER_ORDER, f=(1,), clients=(2,),
                        workloads=(KV(requests=2, batch=1),), block_batch=2, max_sim_time=120.0)


def test_every_experiment_module_but_the_harness_defines_a_sweep():
    modules = [info.name for info in pkgutil.iter_modules(repro.experiments.__path__)]
    assert "throughput" in modules and "harness" in modules
    for name in modules:
        sweep = getattr(importlib.import_module(f"repro.experiments.{name}"), "SWEEP", None)
        assert isinstance(sweep, harness.Sweep) == (name != "harness"), name


def test_scales_registry():
    assert set(throughput.SCALES) == {"small", "medium", "paper"}
    for panels in throughput.SCALES.values():
        assert [panel.name for panel in panels] == [
            "figures", "scale", "clients", "contracts", "faults", "primary"]
    paper = throughput.grid("paper")
    assert max(point.f for point in paper) == 64
    assert max(point.n for point in paper) == 209
    assert protocol_sizes("sbft-c8", 64) == (209, 8)    # the paper's deployment size
    (small_f,) = throughput.panel("small", "figures").f
    assert protocol_sizes("sbft-c0", small_f) == (3 * small_f + 1, 0)


def test_scaled_failures_preserve_ratios():
    """The figures panel crashes 0, f/8 (at least one) and f backups."""
    failures = {name: throughput.panel(name, "figures").faults for name in throughput.SCALES}
    assert failures == {"small": (0, 1, 2), "medium": (0, 1, 8), "paper": (0, 8, 64)}
    for name, values in failures.items():
        (f,) = throughput.panel(name, "figures").f
        assert values == (0, max(1, f // 8), f)


def test_full_grids_have_unique_labels():
    """Built, not run: every scale's grid names each point once."""
    for scale_name in throughput.SCALES:
        labels = [point.label for point in throughput.grid(scale_name)]
        assert len(labels) == len(set(labels)), scale_name


def test_run_point_returns_cluster_result():
    point = Point(protocol="sbft-c0", f=1, clients=2, workload=KV(requests=2, batch=2),
                  label="tiny", block_batch=2, max_sim_time=120.0)
    result = run_point(point)
    assert result.run.completed_requests == 4
    assert result.throughput > 0
    assert result.run.label == "tiny" and result.decision_hash is None


def tiny_figure2_points(protocols):
    """Unbatched, failure-free Figure 2 points at two clients on a LAN."""
    return dataclasses.replace(TINY, protocols=tuple(protocols), topologies=("lan",)).points()


def tiny_figure2(protocols):
    return harness.run(throughput.SWEEP, tiny_figure2_points(protocols))


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
    throughput_ops, latency_ms = curves["sbft-c0"][0]
    assert throughput_ops > 0 and latency_ms > 0


def test_single_node_baseline_positive_throughput():
    baseline = single_node_baseline(num_transactions=200)
    assert baseline["completed_operations"] == 200
    assert baseline["throughput_ops"] > 0


def test_smart_contract_sweep_rows_and_slowdowns(capsys):
    contracts = dataclasses.replace(
        throughput.panel("small", "contracts"), f=(1,), workloads=(Ethereum(transactions=150),),
        clients=(2,), topologies=("continent",), block_batch=2,
    )
    points = contracts.points()
    rows = harness.run(throughput.SWEEP, points)
    assert [row["label"] for row in rows] == [
        "contracts/sbft-c8/f=1/tx=150/fail=0/fixed/clients=2/continent",
        "contracts/pbft/f=1/tx=150/fail=0/fixed/clients=2/continent",
    ]
    assert all(row["kv_batch"] is None and row["all_completed"] for row in rows)
    slowdowns = slowdown_vs_baseline(single_node_baseline(), rows)
    assert set(slowdowns) == {row["label"] for row in rows}
    # Replication always costs something relative to unreplicated execution.
    assert all(value >= 1.0 for value in slowdowns.values())
    assert throughput.SWEEP.report(None, points, rows) == 0
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


def test_committed_throughput_rows_have_the_papers_shapes():
    """Shapes of the paper that the committed small grid shows; no simulation runs."""
    document = json.loads((REPO / "BENCH_throughput.json").read_text())
    rows = [bench["extra_info"] for bench in document["benchmarks"]]
    # The ablation: the fast path commits blocks exactly where it is enabled,
    # and under one crashed backup only SBFT with c > 0 keeps it, which is
    # at least as fast as the c = 0 variant that fell back.
    for kv_batch in (64, 1):
        for clients in throughput.panel("small", "figures").clients:
            healthy = {row["protocol"]: row for row in select(
                rows, "figures", failures=0, clients=clients, kv_batch=kv_batch)}
            assert healthy["linear-pbft"]["fast_blocks"] == 0
            assert healthy["linear-pbft-fast"]["fast_blocks"] > 0
            assert healthy["sbft-c0"]["fast_blocks"] > 0
            crashed = {row["protocol"]: row for row in select(
                rows, "figures", failures=1, clients=clients, kv_batch=kv_batch)}
            assert crashed["sbft-c8"]["fast_blocks"] > 0
            assert crashed["sbft-c0"]["fast_blocks"] == 0
            assert crashed["sbft-c8"]["mean_latency_ms"] <= crashed["sbft-c0"]["mean_latency_ms"]
    # The client ladder: adaptive batching wins at the top rung.
    top = max(throughput.panel("small", "clients").clients)
    for protocol in throughput.panel("small", "clients").protocols:
        fixed, adaptive = (select(rows, "clients", protocol=protocol, clients=top, policy=policy)[0]
                           for policy in ("fixed", "adaptive"))
        assert adaptive["throughput_ops"] > fixed["throughput_ops"], protocol
        assert adaptive["requests_per_block"] > fixed["requests_per_block"], protocol
    # The scale column: more replicas, more messages.
    column = sorted((row["n"], row["messages_sent"]) for row in select(rows, "scale"))
    assert len(column) == 4
    assert all(a[1] < b[1] for a, b in zip(column, column[1:])), column
    # Section VIII: every scripted timeline fired in full, and every point
    # stayed live and made progress after it.
    faults = select(rows, "faults")
    assert len(faults) == 15
    for row in faults:
        assert row["all_completed"] and row["recovered"], row["label"]
        assert row["faults_fired"] == row["faults_planned"] > 0, row["label"]
        assert row["timeline"] and set(row["phases"]) == {"before", "during", "after"}, row["label"]
    # Section V-G: every faulty-primary trial completes through a view change.
    primary = select(rows, "primary")
    assert len(primary) == 9
    assert all(row["all_completed"] and row["max_view"] >= 1 for row in primary)
    # No point of the four Section IX panels starts a view change.
    for name in ("figures", "scale", "clients", "contracts"):
        assert all(row["view_changes"] == 0 and row["max_view"] == 0
                   for row in select(rows, name)), name


def test_primary_panel_reports_success(capsys):
    primary = throughput.panel("small", "primary")
    points = dataclasses.replace(primary, faults=primary.faults[:1], trials=1).points()
    rows = harness.run(throughput.SWEEP, points)
    assert len(rows) == 1
    assert rows[0]["all_completed"]
    assert rows[0]["max_view"] >= 1
    summary = summarize(rows)
    assert summary["crash"]["success_rate"] == 1.0
    assert throughput.SWEEP.report(None, points, rows) == 0
    assert "crash" in capsys.readouterr().out


def test_report_exits_1_when_a_scripted_fault_point_lost_liveness(capsys):
    """No simulation runs, the report reads the rows: a stalled crashed-backups
    point is data, a stalled scripted-fault point fails the run."""
    rows = [dict(panel="scale", fault=None, phases=None, all_completed=True),
            dict(panel="figures", fault=None, phases=None, all_completed=False)]
    assert throughput.report(None, [], rows) == 0
    rows.append(dict(panel="faults", fault="crash-restart", phases=None, all_completed=False))
    assert throughput.report(None, [], rows) == 1
    assert capsys.readouterr().out == ""


def test_scripted_faults_name_their_points():
    """Built, not run: a scripted fault is its label part, sets the point's
    phase and, with a phase, its timeline bucket; trial k runs at seed + k."""
    faults = throughput.panel("small", "faults")
    points = faults.points()
    assert len(points) == len(throughput.SCENARIOS) * len(faults.protocols)
    assert points[0].label == "faults/sbft-c0/f=1/batch=4/crash-backups/fixed/clients=6/continent"
    for point in points:
        (scenario,) = (fault for fault in throughput.SCENARIOS if fault.name == point.tags["fault"])
        assert point.fault_phase == scenario.phase
        assert point.timeline_bucket == throughput.TIMELINE_BUCKET
        assert f"/{scenario.name}/" in point.label
    primary = throughput.panel("small", "primary").points(seed=5)
    assert [point.label for point in primary[:3]] == [
        f"primary/sbft-c0/f=1/batch=2/crash/fixed/clients=2/lan/seed={seed}" for seed in (5, 6, 7)]
    assert [point.seed for point in primary] == [5, 6, 7] * 3
    assert all(point.fault_phase is None and point.timeline_bucket is None for point in primary)


def test_viewchange_summary_keeps_row_order_under_any_hash_seed():
    """The per-fault summary follows the rows, not the interpreter's str hashes."""
    script = (
        "from repro.experiments.throughput import summarize\n"
        "rows = [dict(fault=fault, all_completed=True, view_changes=1)\n"
        "        for fault in ('crash', 'silent', 'equivocate')]\n"
        "print(' '.join(summarize(rows)))\n"
    )
    env = dict(os.environ, PYTHONHASHSEED="1", PYTHONPATH=str(REPO / "src"))
    output = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert output.split() == ["crash", "silent", "equivocate"]


def _cut(name, **axes):
    """A cut of the small panel ``name``, at seed 3."""
    return dataclasses.replace(throughput.panel("small", name), **axes).points(seed=3)


#: One tiny cut per panel, two points each.
WORKER_CUTS = {
    "figures": tiny_figure2_points(["sbft-c0", "pbft"]),
    "scale": _cut("scale", f=(1, 2)),
    "clients": _cut("clients", protocols=("sbft-c0",), clients=(8,)),
    "contracts": _cut("contracts", f=(2,), workloads=(Ethereum(transactions=300),),
                      topologies=("continent",)),
    "faults": _cut("faults", protocols=("sbft-c0",), faults=throughput.SCENARIOS[2:4]),
    "primary": _cut("primary", faults=throughput.PRIMARY_FAULTS[:1], trials=2),
}


@pytest.mark.parametrize("points", WORKER_CUTS.values(), ids=list(WORKER_CUTS))
def test_worker_processes_produce_the_serial_rows(points):
    """--jobs 2 runs two points in worker processes; rows equal a serial run
    outside the host clocks (worker processes start with cold caches)."""

    def simulated(rows):
        return [{k: v for k, v in row.items() if k not in harness.HOST_FIELDS} for row in rows]

    assert (simulated(harness.run(throughput.SWEEP, points, jobs=2))
            == simulated(harness.run(throughput.SWEEP, points)))


def test_client_sweep_rows_cover_grid():
    ladder = dataclasses.replace(throughput.panel("small", "clients"), protocols=("sbft-c0",),
                                 clients=(4,))
    rows = harness.run(throughput.SWEEP, ladder.points(seed=2))
    assert [row["policy"] for row in rows] == ["fixed", "adaptive"]
    for row in rows:
        assert row["all_completed"]
        assert row["clients"] == 4


def test_gate_roundtrip_names_the_first_difference(tmp_path, capsys):
    """Real clocks: the gate compares only what the seed determines."""
    output = tmp_path / "bench.json"
    argv = ["--scale", "small", "--protocols", "sbft-c0", "--clients", "4", "--kv-batch", "4",
            "--failures", "0", "--topologies", "continent", "--seed", "2"]
    assert harness.main(throughput.SWEEP, argv + ["--output", str(output)]) == 0
    document = json.loads(output.read_text())
    assert {b["extra_info"]["policy"] for b in document["benchmarks"]} == {"fixed", "adaptive"}
    # A run gated against its own output passes, whatever the clocks read.
    gate = argv + ["--check-against", str(output)]
    assert harness.main(throughput.SWEEP, gate) == 0

    # One more simulated event in one baseline row fails, naming row and key.
    label = "clients/sbft-c0/f=1/batch=4/fail=0/adaptive/clients=4/continent"
    bumped = copy.deepcopy(document)
    for bench in bumped["benchmarks"]:
        if bench["extra_info"]["label"] == label:
            bench["extra_info"]["events_processed"] += 1
    output.write_text(json.dumps(bumped))
    capsys.readouterr()
    assert harness.main(throughput.SWEEP, gate) == 1
    message = capsys.readouterr().out.splitlines()[-1]
    assert message.startswith("FAIL: ") and label in message and "events_processed" in message

    # A baseline that shares no label with the run fails instead of passing silently.
    renamed = copy.deepcopy(document)
    for bench in renamed["benchmarks"]:
        bench["extra_info"]["label"] += "-renamed"
    output.write_text(json.dumps(renamed))
    assert harness.main(throughput.SWEEP, gate) == 1
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


def test_a_repeated_label_is_refused_before_any_point_runs(monkeypatch, capsys):
    """The gate matches rows by label, so two points of one label would be gated once."""

    def no_run(point, sanitize=False):
        raise AssertionError("a point ran")

    monkeypatch.setattr(harness, "run_point", no_run)
    points = tiny_figure2_points(["sbft-c0", "pbft"])
    with pytest.raises(ConfigurationError, match="'figures/pbft/f=1/batch=1/fail=0/fixed/clients=2/lan'"):
        harness.run(throughput.SWEEP, points + points[1:])
    # A repeated axis value is such a list; the CLI names the label and exits 2.
    with pytest.raises(SystemExit) as exit_info:
        harness.main(throughput.SWEEP, ["--scale", "small", "--clients", "4", "4"])
    assert exit_info.value.code == 2
    assert "share the label 'figures/pbft/f=2/batch=64/fail=0/fixed/clients=4/continent'" in (
        capsys.readouterr().err
    )


def test_gate_fails_on_a_baseline_with_a_repeated_label():
    rows = [{"label": "a", "x": 1, "wall_seconds": 0.5}, {"label": "b", "x": 2, "wall_seconds": 0.5}]
    baseline = harness.emit_benchmark_json(rows + [dict(rows[0], x=9)], group="g")
    for full_grid in (False, True):
        ok, message = harness.check_against_baseline(rows, baseline, full_grid)
        assert not ok and "two rows labelled 'a'" in message


#: Every sweep with a committed baseline, and the file (the adversary
#: search takes no ``--scale``).
BASELINES = {
    throughput: "BENCH_throughput.json",
    search: "BENCH_adversary_search.json",
}


@pytest.mark.parametrize("sweep", BASELINES, ids=lambda module: module.__name__.rsplit(".")[-1])
def test_committed_baseline_equals_a_fresh_small_sweep(sweep):
    """A stale BENCH_*.json fails pytest, not only the CI bench-smoke job."""
    scale = ["--scale", "small"] if sweep.SWEEP.scales else []
    argv = scale + ["--check-against", str(REPO / BASELINES[sweep])]
    assert harness.main(sweep.SWEEP, argv) == 0


def test_runner_raises_when_rows_and_row_schema_disagree():
    points = dataclasses.replace(throughput.panel("small", "scale"), f=(1,), clients=(2,)).points()

    def row_with_undocumented_key(point, result):
        return dict(throughput.throughput_row(point, result), undocumented_key=1)

    emits_more = dataclasses.replace(throughput.SWEEP, row=row_with_undocumented_key)
    with pytest.raises(ValueError, match="undocumented_key"):
        harness.run(emits_more, points)
    documents_more = dataclasses.replace(
        throughput.SWEEP, row_schema=dict(throughput.ROW_SCHEMA, ghost_key="never emitted")
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
SIZED_SWEEPS = [throughput]


@pytest.mark.parametrize("sweep", SIZED_SWEEPS, ids=lambda module: module.__name__.rsplit(".")[-1])
def test_an_unknown_scale_name_fails_instead_of_running_small(sweep):
    assert set(sweep.SWEEP.scales) == {"small", "medium", "paper"}
    with pytest.raises(ConfigurationError, match="unknown scale 'medum'"):
        sweep.grid(scale_name="medum")


def test_an_unknown_panel_name_fails_naming_the_panels():
    with pytest.raises(ConfigurationError,
                       match="unknown panel 'figure' \\(known: figures, scale, clients, contracts, "
                             "faults, primary\\)"):
        throughput.panel("small", "figure")
    with pytest.raises(ConfigurationError, match="unknown scale 'medum'"):
        throughput.panel("medum", "figures")


def test_a_grid_axis_replaces_that_axis_in_every_panel():
    """Built, not run: a given axis holds on every point; ``kv_batch`` sets
    every KV workload's batch and leaves the Ethereum workload as it is, and
    ``failures`` sets every crashed-backup count and leaves the scripted
    faults as they are."""
    panels = [panel.name for panel in throughput.SCALES["small"]]
    points = throughput.grid("small", clients=(4,), topologies=("lan",), failures=(0,))
    assert [point.tags["panel"] for point in points] == sorted(
        (point.tags["panel"] for point in points), key=panels.index)
    assert {point.tags["panel"] for point in points} == set(panels)
    assert {(point.clients, point.topology) for point in points} == {(4, "lan")}
    crashes = [point for point in points if point.tags["fault"] is None]
    assert ({point.tags["panel"] for point in crashes}
            == {"figures", "scale", "clients", "contracts"})
    assert all(not point.fault_plan.faults for point in crashes)
    for point in points:
        assert point.label.startswith(point.tags["panel"] + "/")
        assert "/clients=4/lan" in point.label
    assert all("/fail=0/" in point.label for point in crashes)
    assert len(points) - len(crashes) == len(throughput.grid("small", panels=("faults", "primary")))

    batched = throughput.grid("small", kv_batch=(2,))
    untouched = throughput.grid("small")
    assert len(batched) < len(untouched)    # figures had two batch sizes
    assert {point.workload.batch for point in batched if isinstance(point.workload, KV)} == {2}
    assert ([point.label for point in batched if point.tags["panel"] == "contracts"]
            == [point.label for point in untouched if point.tags["panel"] == "contracts"])


def test_the_panels_axis_runs_only_the_named_panels_in_that_order():
    """Built, not run: ``panels`` picks panels, the other axes then apply to
    those only, and an unknown panel name raises."""
    untouched = throughput.grid("paper")
    points = throughput.grid("paper", panels=("contracts", "scale"), failures=(0, 1))
    assert [point.label for point in points if point.tags["panel"] == "scale"][:2] == [
        "scale/sbft-c0/f=1/batch=8/fail=0/fixed/clients=16/continent",
        "scale/sbft-c0/f=1/batch=8/fail=1/fixed/clients=16/continent",
    ]
    assert [point.tags["panel"] for point in points] == sorted(
        (point.tags["panel"] for point in points), key=["contracts", "scale"].index)
    assert len(points) == 2 * sum(1 for point in untouched
                                  if point.tags["panel"] in ("contracts", "scale"))
    with pytest.raises(ConfigurationError, match="unknown panel 'figure'"):
        throughput.grid("small", panels=("figure",))
    # The CLI takes the panel names, and nothing else, as ``--panels``.
    with pytest.raises(SystemExit) as exit_info:
        harness.main(throughput.SWEEP, ["--panels", "figure"])
    assert exit_info.value.code == 2


def _cluster_runners(path):
    """The functions of ``path`` that call ``build_cluster`` (or ``Cluster``)
    or ``.run`` on a name bound to what it (or ``point_cluster``) returned."""
    runners = []
    for function in ast.walk(ast.parse(path.read_text())):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        calls = [node for node in ast.walk(function) if isinstance(node, ast.Call)]
        built = {
            target.id
            for node in ast.walk(function) if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call) and isinstance(node.value.func, ast.Name)
            and node.value.func.id in ("build_cluster", "Cluster", "point_cluster")
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
    """``harness.point_cluster`` is the only code under ``src/repro`` that
    builds a cluster and ``harness.run_point`` the only code that runs one,
    apart from ``build_cluster`` itself."""
    package = REPO / "src" / "repro"
    runners = [runner for path in sorted(package.rglob("*.py"))
               for runner in _cluster_runners(path)]
    assert runners == ["harness.point_cluster", "harness.run_point", "cluster.build_cluster"]
