"""Tests for the protocol-invariant linter (``repro.analysis.lint``).

Fixture modules under ``tests/fixtures/lint/`` carry planted violations, each
marked with a ``# PLANT: <rule>`` comment on the offending physical line, so
the expected (line, rule) pairs are read from the fixtures themselves.
"""

import json
import re
import shutil
from pathlib import Path

import pytest

from repro.analysis.lint import ALL_RULES, run_lint
from repro.analysis.lint import main as lint_main

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
FIXTURES = REPO / "tests" / "fixtures" / "lint"

_PLANT_RE = re.compile(r"#\s*PLANT:\s*([a-z\-]+)")


def planted_violations(path: Path):
    """-> sorted [(line, rule)] read from the fixture's PLANT markers."""
    marks = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        match = _PLANT_RE.search(line)
        if match:
            marks.append((lineno, match.group(1)))
    return sorted(marks)


@pytest.mark.parametrize(
    "fixture",
    [
        "wall_clock.py",
        "ordered_iteration.py",
        "stale_suppression.py",
    ],
)
def test_planted_violations_reported_at_exact_lines(fixture):
    path = FIXTURES / fixture
    expected = planted_violations(path)
    assert expected, f"fixture {fixture} has no PLANT markers"
    findings, suppressed = run_lint([path])
    assert sorted((f.line, f.rule) for f in findings) == expected
    assert suppressed == 0
    assert all(f.path == path.as_posix() for f in findings)


def test_allow_comment_suppresses_exactly_one_line():
    path = FIXTURES / "suppressions.py"
    findings, suppressed = run_lint([path])
    # Both lines read time.time(); only the un-annotated one survives.
    assert [(f.line, f.rule) for f in findings] == [(8, "no-wall-clock")]
    assert suppressed == 1


def test_json_report_carries_rule_file_line(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    exit_code = lint_main([str(FIXTURES), "--json", str(report_path)])
    assert exit_code == 1  # planted violations -> nonzero (CI fail-demonstrably)
    report = json.loads(report_path.read_text())
    assert report["suppressed"] == 1
    assert sorted(report["rules"]) == sorted(ALL_RULES)
    # Exactly the two planted in the stale_suppression.py fixture.
    assert report["stale_suppressions"] == 2
    findings = report["findings"]
    assert findings, "expected planted findings in the JSON report"
    for finding in findings:
        assert set(finding) == {"rule", "path", "line", "col", "message", "id"}
        assert finding["rule"] in ALL_RULES
        assert finding["line"] >= 1
        assert re.fullmatch(r"[0-9a-f]{12}", finding["id"])
    # Content-derived ids are unique within a report and stable across runs.
    ids = [f["id"] for f in findings]
    assert len(set(ids)) == len(ids)
    rerun_path = report_path.with_name("rerun.json")
    assert lint_main([str(FIXTURES), "--json", str(rerun_path)]) == 1
    assert json.loads(rerun_path.read_text())["findings"] == findings
    planted = {
        (path.name, line, rule)
        for path in FIXTURES.glob("*.py")
        for line, rule in planted_violations(path)
    }
    reported = {(Path(f["path"]).name, f["line"], f["rule"]) for f in findings}
    assert planted == reported


def test_src_tree_is_clean_and_exits_zero(capsys):
    findings, _suppressed = run_lint([SRC])
    assert findings == [], [f.render() for f in findings]
    assert lint_main([str(SRC)]) == 0


def test_rules_filter_and_unknown_rule():
    findings, _ = run_lint([FIXTURES / "wall_clock.py"], rules=["ordered-iteration"])
    assert findings == []
    with pytest.raises(ValueError):
        run_lint([FIXTURES / "wall_clock.py"], rules=["no-such-rule"])
    assert lint_main([str(FIXTURES), "--rules", "no-such-rule"]) == 2


# ---------------------------------------------------------------------------
# stale-suppression and content-derived finding ids
# ---------------------------------------------------------------------------


def test_stale_suppression_flags_rotted_allow_in_mutated_tree(tmp_path):
    # Plant a fresh allow comment on a src line where nothing fires.
    root = tmp_path / "repro"
    shutil.copytree(SRC / "repro", root)
    target = root / "core" / "config.py"
    anchor = "from __future__ import annotations\n"
    text = target.read_text()
    assert anchor in text
    target.write_text(
        text.replace(anchor, anchor + "\n_UNUSED = 1  # repro: " "allow[no-wall-clock]\n")
    )
    findings, _ = run_lint([root], rules=["no-wall-clock", "stale-suppression"])
    assert [f.rule for f in findings] == ["stale-suppression"]
    assert "no-wall-clock" in findings[0].message


def test_stale_suppression_respects_enabled_rules():
    path = FIXTURES / "stale_suppression.py"
    # The allowed rule (no-wall-clock) is not enabled, so its absence on the
    # line proves nothing and the suppression must not be called stale.
    # An id that is no rule at all is a finding whatever is enabled.
    findings, _ = run_lint([path], rules=["stale-suppression", "ordered-iteration"])
    assert [(f.line, "orderd-iteration" in f.message) for f in findings] == [(15, True)]


def test_finding_ids_survive_line_drift(tmp_path):
    target = tmp_path / "drift.py"
    body = (FIXTURES / "wall_clock.py").read_text()
    target.write_text(body)
    before, _ = run_lint([target])
    target.write_text("# comment\n# comment\n# comment\n" + body)
    after, _ = run_lint([target])
    assert [f.id for f in before] == [f.id for f in after]
    assert [f.line + 3 for f in before] == [f.line for f in after]
