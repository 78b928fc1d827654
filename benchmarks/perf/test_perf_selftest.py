"""Self-test of the benchmark tool at ``--smoke`` sizes.

Collected by ``pytest benchmarks`` (CI's benchmark step), not by the tier-1
run.  It checks the tool — schema, names, ledger closure, exact repeatability,
graceful degradation — and measures nothing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)

import catalogue  # noqa: E402
import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SMOKE = ["--smoke", "--seconds", "0.01"]


def _run(*args, cwd=REPO_ROOT):
    return subprocess.run(
        [sys.executable, RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=120
    )


@pytest.fixture(scope="module")
def smoke_results(tmp_path_factory):
    """Two smoke runs of all five workloads: one traced, one not."""
    out = tmp_path_factory.mktemp("perf")
    paths = [str(out / "a.json"), str(out / "b.json")]
    for path, trace in zip(paths, ("1", "0")):
        done = _run(*SMOKE, "--trace", trace, "--output", path)
        assert done.returncode == 0, done.stdout + done.stderr
    results = []
    for path in paths:
        with open(path) as handle:
            results.append(json.load(handle))
    return results


def test_schema_names_and_correctness(smoke_results):
    traced, _untraced = smoke_results
    assert list(traced["workloads"]) == list(workloads.WORKLOADS)
    assert len(traced["workloads"]) == 5
    end_to_end = [m.name for m in catalogue.END_TO_END + catalogue.ZERO_BASED]
    assert len(end_to_end) == 8
    for name, entry in traced["workloads"].items():
        assert entry["correct"] and entry["failed"] == 0 and entry["attempted"] >= 1, name
        assert list(entry["end_to_end"]) == end_to_end
        for row in entry["end_to_end"].values():
            assert {"value", "spread", "unit", "better", "bound", "reps"} <= set(row)
        assert list(entry["per_layer"]) == [m.name for m in catalogue.PER_LAYER]
        assert all(row["value"] is not None for row in entry["per_layer"].values())
        assert entry["unresolved"] == []
        assert entry["per_layer"]["trace.overhead_ratio"]["value"] > 1.0


def test_every_layer_reported_and_shares_close(smoke_results):
    traced, _untraced = smoke_results
    for name, entry in traced["workloads"].items():
        shares = [
            entry["per_layer"][f"{layer}.self_share"]["value"] for layer in layers.CODE_LAYERS
        ]
        assert sum(shares) == pytest.approx(1.0, abs=0.01), name
        assert entry["per_layer"]["other.self_share"]["value"] < 0.02, name
    per_layer = {name: entry["per_layer"] for name, entry in traced["workloads"].items()}
    assert per_layer["kv-pbft-quadratic"]["core.msgs_handled"]["value"] == 0
    assert per_layer["kv-pbft-quadratic"]["pbft.msgs_handled"]["value"] > 0
    assert per_layer["evm-sbft-lan"]["evm.execute_calls"]["value"] > 0
    for name in workloads.WORKLOADS:
        if name != "evm-sbft-lan":
            assert per_layer[name]["evm.self_s"]["value"] == 0
    assert per_layer["kv-sbft-fast"]["core.fast_path_share"]["value"] == 1.0
    assert per_layer["kv-sbft-viewchange"]["core.view_changes"]["value"] >= 1


def test_counters_repeat_exactly_between_runs(smoke_results):
    traced, untraced = smoke_results
    for name in workloads.WORKLOADS:
        a, b = traced["workloads"][name], untraced["workloads"][name]
        assert a["counters"] == b["counters"], name
        for metric in ("sim_throughput_ops", "sim_latency_p50_ms", "sim_latency_p99_ms",
                       "sim_outage_s"):
            assert a["end_to_end"][metric]["value"] == b["end_to_end"][metric]["value"]
    lines, any_worse = compare.compare(traced, traced)
    assert not any_worse
    assert not any("counters differ" in line for line in lines)


def test_contract_line_for_a_single_workload():
    for trace, expected in (("0", catalogue.END_TO_END), ("1", catalogue.PER_LAYER)):
        done = _run(*SMOKE, "--workload", "kv-sbft-pipelined-rw", "--seed", "3", "--trace", trace)
        assert done.returncode == 0, done.stdout + done.stderr
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert list(line["metrics"]) == [m.name for m in expected]
        for metric in expected:
            assert line["metrics"][metric.name]["unit"] == metric.unit
            assert isinstance(line["metrics"][metric.name]["value"], (int, float))


def test_benchmark_json_matches_the_catalogue():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    assert declared["command"] == ["python3", "benchmarks/perf/run.py"]
    assert declared["paths"] == ["benchmarks/perf"]
    assert declared["run_seconds"] == run.DEFAULT_SECONDS
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
    assert declared["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in catalogue.END_TO_END
    ]
    assert declared["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in catalogue.PER_LAYER
    ]
    assert len(declared["per_layer"]) <= 128


def test_unresolvable_boundary_degrades_to_null():
    bogus = dict(layers.BOUNDARIES)
    bogus["crypto.hashing.sha256_calls"] = ("repro.crypto.hashing.renamed_away",)
    bogus["evm.execute_calls"] = ("repro.no_such_module.EVM.execute",)
    record = worker.run_rep(
        "kv-sbft-pipelined-rw", seed=0, smoke=True, trace=True, spawned_at=0.0, boundaries=bogus
    )
    trace = record["trace"]
    assert record["failures"] == []
    assert trace["crypto.hashing.sha256_calls"] is None
    assert trace["crypto.hashing.us_per_call"] is None
    assert trace["evm.execute_calls"] is None
    assert trace["trace.unresolved"] == [
        "repro.crypto.hashing.renamed_away",
        "repro.no_such_module.EVM.execute",
    ]
    assert trace["sim.events.schedule_calls"] > 0  # the others still resolve


def test_compare_verdicts():
    def row(value, spread=0.02, better="lower", bound=0.10):
        return {"value": value, "spread": spread, "better": better, "bound": bound}

    assert compare.verdict(row(1.0), row(1.05)) == "same"
    assert compare.verdict(row(1.0), row(1.2)) == "worse"
    assert compare.verdict(row(1.0), row(0.8)) == "better"
    assert compare.verdict(row(1.0, spread=0.2), row(1.2)) == "unresolved"
    higher = dict(spread=0.0, better="higher", bound=0.01)
    assert compare.verdict(row(100, **higher), row(90, **higher)) == "worse"
    zero = dict(spread=0.0, bound=0.0)
    assert compare.verdict(row(0.0, **zero), row(0.5, **zero)) == "worse"
    assert compare.verdict(row(0.0, **zero), row(0.0, **zero)) == "same"

    fastest = run.spread_summary([1.0, 1.01, 1.02, 1.5, 1.6], "min")
    assert fastest["value"] == 1.0 and fastest["spread"] < 0.02
    median = run.spread_summary([1.0, 1.01, 1.02, 1.5, 1.6])
    assert median["value"] == 1.02 and median["spread"] > 0.4


def test_exits_nonzero_without_the_repo(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: fail fast, print no result."""
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "perf", ignore=shutil.ignore_patterns("__pycache__", "out")
    )
    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "kv-sbft-fast", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
