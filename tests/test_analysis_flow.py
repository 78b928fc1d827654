"""Tests for the interprocedural flow analyzer (``repro.analysis.flow``).

Fixture modules under ``tests/fixtures/flow/`` carry planted violations,
each marked with a ``# PLANT: <analysis>`` comment on the offending physical
line, so the expected (line, analysis) pairs are read from the fixtures
themselves.  The mutation tests copy ``src/repro`` and inject the exact
hazards the analyses exist to catch — a laundered wall-clock read two hops
below a message handler, a conditional stash write, a ``sim.now`` leak into
a stashing helper — and assert flow fails with the full call/alias chain.
"""

import json
import re
import shutil
import time
from pathlib import Path

import pytest

from repro.analysis.flow import FLOW_ANALYSES, run_flow
from repro.analysis.flow import main as flow_main

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
FIXTURES = REPO / "tests" / "fixtures" / "flow"

_PLANT_RE = re.compile(r"#\s*PLANT:\s*([a-z\-]+)")


def planted_findings(path: Path):
    """-> sorted [(line, analysis)] read from the fixture's PLANT markers."""
    marks = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        match = _PLANT_RE.search(line)
        if match:
            marks.append((lineno, match.group(1)))
    return sorted(marks)


@pytest.mark.parametrize(
    "fixture",
    ["alias_memo.py", "escape_stash.py", "taint_chain.py"],
)
def test_planted_findings_reported_at_exact_lines(fixture):
    path = FIXTURES / fixture
    expected = planted_findings(path)
    assert expected, f"fixture {fixture} has no PLANT markers"
    findings, suppressed = run_flow([path])
    assert sorted((f.line, f.analysis) for f in findings) == expected
    assert suppressed == 0
    assert all(f.path == path.as_posix() for f in findings)


def test_taint_chain_carries_the_full_call_chain():
    findings, _ = run_flow([FIXTURES / "taint_chain.py"])
    [finding] = [f for f in findings if f.analysis == "nondeterministic-taint"]
    # Four entries: handler -> helper_a -> helper_b -> source atom.
    assert len(finding.chain) == 4
    assert "MiniReplica._on_ping" in finding.chain[0]
    assert "helper_a" in finding.chain[1]
    assert "helper_b" in finding.chain[2]
    assert finding.chain[3].startswith("source ")
    assert "message handler" in finding.message
    assert "time.time" in finding.message


def test_src_tree_is_clean_and_fast():
    start = time.perf_counter()  # repro: allow[no-wall-clock] measuring the analyzer itself
    findings, _suppressed = run_flow([SRC])
    elapsed = time.perf_counter() - start  # repro: allow[no-wall-clock] measuring the analyzer itself
    assert findings == [], [f.render() for f in findings]
    # CI budget: whole-program analysis of src must stay interactive.
    assert elapsed < 30.0, f"flow took {elapsed:.1f}s on src"
    assert flow_main([str(SRC)]) == 0


def test_json_report_carries_chains_and_stable_ids(tmp_path):
    report_path = tmp_path / "report.json"
    exit_code = flow_main([str(FIXTURES), "--json", str(report_path)])
    assert exit_code == 1  # planted violations -> nonzero (CI fail-demonstrably)
    report = json.loads(report_path.read_text())
    assert report["analyses"] == sorted(FLOW_ANALYSES)
    assert report["suppressed"] == 0
    assert report["stale_suppressions"] == 0
    findings = report["findings"]
    assert findings, "expected planted findings in the JSON report"
    for finding in findings:
        assert set(finding) == {"analysis", "path", "line", "col", "message", "chain", "id"}
        assert finding["analysis"] in FLOW_ANALYSES
        assert finding["line"] >= 1
        assert isinstance(finding["chain"], list)
        assert re.fullmatch(r"[0-9a-f]{12}", finding["id"])
    # Findings are sorted (file, line, analysis) for mergeable artifacts.
    keys = [(f["path"], f["line"], f["col"], f["analysis"]) for f in findings]
    assert keys == sorted(keys)
    ids = [f["id"] for f in findings]
    assert len(set(ids)) == len(ids)
    rerun_path = report_path.with_name("rerun.json")
    assert flow_main([str(FIXTURES), "--json", str(rerun_path)]) == 1
    assert json.loads(rerun_path.read_text())["findings"] == findings
    planted = {
        (path.name, line, analysis)
        for path in FIXTURES.glob("*.py")
        for line, analysis in planted_findings(path)
    }
    reported = {(Path(f["path"]).name, f["line"], f["analysis"]) for f in findings}
    assert planted == reported


def test_explain_prints_the_chain(capsys):
    findings, _ = run_flow([FIXTURES / "taint_chain.py"])
    finding_id = findings[0].id
    assert flow_main([str(FIXTURES / "taint_chain.py"), "--explain", finding_id[:8]]) == 0
    out = capsys.readouterr().out
    assert "chain:" in out
    assert "helper_b" in out
    assert flow_main([str(FIXTURES / "taint_chain.py"), "--explain", "ffffffffffff"]) == 2


def test_baseline_roundtrip(tmp_path):
    baseline = tmp_path / "baseline.json"
    assert flow_main([str(FIXTURES), "--write-baseline", str(baseline)]) == 0
    # Every finding baselined -> the gate passes.
    assert flow_main([str(FIXTURES), "--baseline", str(baseline)]) == 0
    # Dropping one entry re-surfaces exactly that finding.
    payload = json.loads(baseline.read_text())
    dropped = sorted(payload["baseline"])[0]
    del payload["baseline"][dropped]
    baseline.write_text(json.dumps(payload))
    report = tmp_path / "report.json"
    assert flow_main([str(FIXTURES), "--baseline", str(baseline), "--json", str(report)]) == 1
    resurfaced = json.loads(report.read_text())["findings"]
    assert [f["id"] for f in resurfaced] == [dropped]


def test_cli_filters_and_errors(tmp_path, capsys):
    assert flow_main(["--list-analyses"]) == 0
    assert capsys.readouterr().out.split() == list(FLOW_ANALYSES)
    # Excluding the fixture dir leaves nothing to analyze -> clean exit.
    assert flow_main([str(FIXTURES), "--exclude", str(FIXTURES)]) == 0
    assert flow_main([str(FIXTURES), "--analyses", "no-such-analysis"]) == 2
    with pytest.raises(ValueError):
        run_flow([FIXTURES], analyses=["no-such-analysis"])
    # Analysis filtering: taint-only run ignores the escape fixtures.
    findings, _ = run_flow([FIXTURES], analyses=["nondeterministic-taint"])
    assert {f.analysis for f in findings} == {"nondeterministic-taint"}


# ---------------------------------------------------------------------------
# stale-suppression (flow side)
# ---------------------------------------------------------------------------


def test_stale_flow_suppression_is_flagged(tmp_path):
    target = tmp_path / "stale.py"
    target.write_text(
        "def double(x):\n"
        "    return x * 2  # repro: " "allow[shared-alias]\n"
    )
    findings, _ = run_flow([target])
    assert [(f.line, f.analysis) for f in findings] == [(2, "stale-suppression")]
    assert "shared-alias" in findings[0].message and "stale" in findings[0].message


def test_unknown_suppression_id_is_flagged(tmp_path):
    target = tmp_path / "typo.py"
    target.write_text(
        "def double(x):\n"
        "    return x * 2  # repro: " "allow[shared-aliass]\n"
    )
    findings, _ = run_flow([target])
    assert [(f.line, f.analysis) for f in findings] == [(2, "stale-suppression")]
    assert "unknown to both lint and flow" in findings[0].message


def test_lint_rule_suppressions_are_left_to_lint(tmp_path):
    # A (live or stale) lint-rule allow is lint's business: flow must not
    # second-guess rules it does not run.
    target = tmp_path / "lintside.py"
    target.write_text(
        "def double(x):\n"
        "    return x * 2  # repro: " "allow[no-wall-clock]\n"
    )
    findings, _ = run_flow([target])
    assert findings == []


# ---------------------------------------------------------------------------
# Mutation tests: inject the hazard, assert flow fails with the full chain
# ---------------------------------------------------------------------------


def _mutated_tree(tmp_path: Path, relative: str, edits) -> Path:
    """Copy ``src/repro`` and apply (removed, inserted) pairs to one file."""
    root = tmp_path / "repro"
    shutil.copytree(SRC / "repro", root)
    target = root / relative
    text = target.read_text()
    for removed, inserted in edits:
        assert removed in text, f"mutation anchor not found in {relative}: {removed!r}"
        text = text.replace(removed, inserted)
    target.write_text(text)
    return root


def test_flow_fails_on_two_hop_wall_clock_leak_into_handler(tmp_path):
    # A wall-clock read laundered through two module helpers below
    # _on_pre_prepare: invisible per-function, caught interprocedurally.
    root = _mutated_tree(
        tmp_path,
        "core/replica.py",
        [
            (
                "class SBFTReplica(",
                "def _jitter_probe():\n"
                "    return time.time()\n"
                "\n"
                "\n"
                "def _handler_jitter():\n"
                "    return _jitter_probe()\n"
                "\n"
                "\n"
                "class SBFTReplica(",
            ),
            (
                "        if pre_prepare_expected_digest(message) != message.digest:\n",
                "        _handler_jitter()\n"
                "        if pre_prepare_expected_digest(message) != message.digest:\n",
            ),
        ],
    )
    findings, _ = run_flow([root], analyses=["nondeterministic-taint"])
    [finding] = [f for f in findings if "time.time" in f.message]
    assert finding.path.endswith("repro/core/replica.py")
    # handler -> _handler_jitter -> _jitter_probe -> source: 4 entries.
    assert len(finding.chain) == 4
    assert "_on_pre_prepare" in finding.chain[0]
    assert "_handler_jitter" in finding.chain[1]
    assert "_jitter_probe" in finding.chain[2]
    assert "message handler" in finding.message


def test_flow_fails_on_conditional_stash_write(tmp_path):
    # Gate the _expected_digest stash write on message state outside the
    # stash-if-absent guard: replicas could stash or skip divergently.
    root = _mutated_tree(
        tmp_path,
        "core/runtime.py",
        [
            (
                '        object.__setattr__(pre_prepare, "_expected_digest", digest)\n',
                "        if pre_prepare.sequence >= 0:\n"
                '            object.__setattr__(pre_prepare, "_expected_digest", digest)\n',
            )
        ],
    )
    findings, _ = run_flow([root], analyses=["stash-discipline"])
    assert len(findings) == 1
    finding = findings[0]
    assert finding.path.endswith("repro/core/runtime.py")
    assert "'_expected_digest'" in finding.message
    assert "conditionally on non-stash state" in finding.message
    assert "pre_prepare.sequence >= 0" in finding.message
    # Chain: function hop, write site, offending condition.
    assert len(finding.chain) == 3
    assert finding.chain[2].startswith("condition ")


def test_flow_fails_on_sim_now_leak_into_stashing_helper(tmp_path):
    # block_execution_plan stashes its result on the shared message; salting
    # the cost with sim.now (via a helper) makes the stash time-dependent.
    root = _mutated_tree(
        tmp_path,
        "core/runtime.py",
        [
            (
                "def block_execution_plan(",
                "def _plan_salt(service):\n"
                "    return service.sim.now\n"
                "\n"
                "\n"
                "def block_execution_plan(",
            ),
            (
                "    cost = sum(service.execution_cost(op) for op in flattened)\n",
                "    cost = sum(service.execution_cost(op) for op in flattened)\n"
                "    cost += _plan_salt(service)\n",
            ),
        ],
    )
    findings, _ = run_flow([root], analyses=["memo-taint"])
    [finding] = [f for f in findings if "_plan_salt" in f.message]
    assert finding.analysis == "memo-taint"
    assert "sim.now" in finding.message
    # block_execution_plan -> _plan_salt -> source: 3 entries.
    assert len(finding.chain) == 3
    assert "block_execution_plan" in finding.chain[0]
    assert "_plan_salt" in finding.chain[1]


def test_flow_fails_when_exec_plan_freeze_is_removed(tmp_path):
    # Reverting the tuple freeze resurrects the real shared-alias hazard
    # this analyzer originally caught in block_execution_plan (PR 9).
    root = _mutated_tree(
        tmp_path,
        "core/runtime.py",
        [("    operations = BlockOperations(flattened)\n", "    operations = flattened\n")],
    )
    findings, _ = run_flow([root], analyses=["shared-alias"])
    assert len(findings) == 1
    finding = findings[0]
    assert finding.path.endswith("repro/core/runtime.py")
    assert "_exec_plan" in finding.message
    assert "returns it to the caller" in finding.message
