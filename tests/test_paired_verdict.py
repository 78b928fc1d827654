"""``benchmarks/paired.py`` prints one verdict per host metric by the repo's
rule: ``gain`` (at least 9/10 pairs won and a median gap larger than the
parent's IQR), ``unresolved`` (the parent's IQR is wider than the metric's
bound and the two sides overlap), ``no worse`` (the change's median within
the bound) or ``worse``.  Each is reached here on hand-made pair records."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "paired.py"
_SPEC = importlib.util.spec_from_file_location("paired", _PATH)
paired = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(paired)

_SIM = {"sim_throughput_ops": 2513.0, "sim_latency_p50_ms": 181.7, "sim_latency_p99_ms": 207.5}


def _rep(run_wall_s, peak_rss_mb=34.0):
    return {"host": {"setup_s": 0.2, "run_wall_s": run_wall_s, "peak_rss_mb": peak_rss_mb},
            "sim": dict(_SIM), "counters": {"requests": 256}}


def _pairs(parent, change):
    return [{"parent": _rep(a), "change": _rep(b)} for a, b in zip(parent, change)]


TIGHT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.03, 0.97]


@pytest.mark.parametrize("parent, change, expected", [
    (TIGHT, [0.85] * 10, "gain"),
    # Nine of ten pairs still counts; eight does not.
    (TIGHT, [0.85] * 9 + [1.10], "gain"),
    (TIGHT, [0.85] * 8 + [1.10] * 2, "no worse"),
    (TIGHT, [1.05] * 10, "no worse"),
    (TIGHT, [1.40] * 10, "worse"),
    # Parent IQR 0.5 s > 25 % of its median, and the sides overlap.
    ([0.5, 1.5] * 5, [1.0, 1.2] * 5, "unresolved"),
    # Just as wide, but every change rep beats every parent rep: not
    # unresolved, and the gap (0.55 s) is under the parent IQR (1.0 s).
    ([1.0] * 5 + [2.0] * 5, [0.95] * 10, "no worse"),
])
def test_each_verdict_is_reached(parent, change, expected):
    summary = paired.summarise(_pairs(parent, change))
    assert summary["run_wall_s"]["verdict"] == expected
    assert summary["setup_s"]["verdict"] == summary["peak_rss_mb"]["verdict"] == "no worse"
    assert all("verdict" not in summary[name] for name in _SIM)


def test_each_metric_is_judged_by_its_own_bound_from_the_catalogue():
    bounds = {metric.name: metric.bound for metric in paired.catalogue.END_TO_END}
    assert bounds["run_wall_s"] == 0.25 and bounds["peak_rss_mb"] == 0.10
    # Both 17.6 % worse: inside run_wall_s's bound, outside peak_rss_mb's.
    pairs = [{"parent": _rep(1.00 + 0.001 * i, 34.0 + 0.001 * i), "change": _rep(1.176, 40.0)}
             for i in range(10)]
    summary = paired.summarise(pairs)
    assert summary["run_wall_s"]["verdict"] == "no worse"
    assert summary["peak_rss_mb"]["verdict"] == "worse"
