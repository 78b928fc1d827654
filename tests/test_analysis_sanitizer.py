"""Tests for the determinism sanitizer (``repro.analysis.sanitizer``)."""

import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.sanitizer import (
    CountingRandom,
    SCENARIOS,
    first_divergence,
    format_divergence,
    selfcheck,
)
from repro.analysis.sanitizer import main as sanitizer_main
from repro.protocols.cluster import build_cluster
from repro.workloads.kv_workload import KVWorkload


def _tiny_cluster(seed=3):
    return build_cluster("sbft-c0", f=1, num_clients=2, topology="lan", batch_size=2, seed=seed)


def _tiny_workload():
    return KVWorkload(requests_per_client=3, batch_size=2, seed=5)


def test_counting_random_counts_derived_draws():
    rng = CountingRandom(7)
    plain = random.Random(7)
    values = [rng.random(), rng.uniform(0, 10), float(rng.randrange(1000)), rng.gauss(0, 1)]
    expected = [
        plain.random(),
        plain.uniform(0, 10),
        float(plain.randrange(1000)),
        plain.gauss(0, 1),
    ]
    assert values == expected  # state-identical to a plain Random
    assert rng.draws >= 4  # every derived method consumed primitive draws


def test_same_seed_runs_produce_identical_chains():
    first = _tiny_cluster().run(_tiny_workload(), sanitize=True)
    second = _tiny_cluster().run(_tiny_workload(), sanitize=True)
    assert first.decision_hash is not None
    assert first.decision_hash == second.decision_hash
    assert first.decision_trace == second.decision_trace
    assert len(first.decision_trace) == first.events_processed > 0
    # The network's latency draws are counted: some event consumed RNG.
    assert sum(record[4] for record in first.decision_trace) > 0
    # Delivery events carry the wire message type as their detail field.
    assert any(record[3] == "pre-prepare" for record in first.decision_trace)


def test_different_seeds_diverge():
    first = _tiny_cluster(seed=3).run(_tiny_workload(), sanitize=True)
    second = _tiny_cluster(seed=4).run(_tiny_workload(), sanitize=True)
    assert first.decision_hash != second.decision_hash
    assert first_divergence(first.decision_trace, second.decision_trace) is not None


def test_sanitize_defaults_off_and_env_enables(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    plain = _tiny_cluster().run(_tiny_workload())
    assert plain.decision_hash is None and plain.decision_trace is None

    monkeypatch.setenv("REPRO_SANITIZE", "1")
    sanitized = _tiny_cluster().run(_tiny_workload())
    assert sanitized.decision_hash is not None

    # The sanitized run replays the unsanitized one exactly (state-preserving
    # RNG clones): protocol outcomes are untouched by instrumentation.
    assert sanitized.run.completed_requests == plain.run.completed_requests
    assert sanitized.sim_time == plain.sim_time
    assert sanitized.events_processed == plain.events_processed


def test_sanitize_keyword_overrides_env(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    result = _tiny_cluster().run(_tiny_workload(), sanitize=False)
    assert result.decision_hash is None


def test_first_divergence_identifies_perturbed_record():
    trace = _tiny_cluster().run(_tiny_workload(), sanitize=True).decision_trace
    assert first_divergence(trace, trace) is None
    perturbed = list(trace)
    index = len(trace) // 2
    time, seq, handler, detail, draws = perturbed[index]
    perturbed[index] = (time, seq, handler, detail, draws + 1)
    assert first_divergence(trace, perturbed) == index
    report = format_divergence(trace, perturbed, index)
    assert f"index {index}" in report
    assert f">> [{index}]" in report
    # A pure prefix diverges at the shorter trace's length.
    assert first_divergence(trace, trace[:-3]) == len(trace) - 3


@dataclass
class _LeakyWorkload(KVWorkload):
    """Deliberately impure: request count depends on hidden global state."""

    calls: list = field(default_factory=lambda: _LEAK)

    def client_operations(self, client_id):
        self.calls.append(client_id)
        self.requests_per_client = 2 + len(self.calls) // 4
        return super().client_operations(client_id)


_LEAK: list = []


def test_injected_global_state_divergence_is_bisected():
    """End-to-end bisect: a run-order-dependent workload breaks the chain."""
    _LEAK.clear()
    first = _tiny_cluster().run(_LeakyWorkload(batch_size=2, seed=5), sanitize=True)
    second = _tiny_cluster().run(_LeakyWorkload(batch_size=2, seed=5), sanitize=True)
    assert first.decision_hash != second.decision_hash
    index = first_divergence(first.decision_trace, second.decision_trace)
    assert index is not None
    assert first.decision_trace[:index] == second.decision_trace[:index]
    if index < len(first.decision_trace) and index < len(second.decision_trace):
        assert first.decision_trace[index] != second.decision_trace[index]
    report = format_divergence(first.decision_trace, second.decision_trace, index)
    assert "run A" in report and "run B" in report


#: The four scenarios' chain hashes at seed 0: part of the fixed-seed
#: contract.  A change that moves one changed the decisions of that run.
CHAIN_HASHES = {
    "client": "2ee61e75dbb7c9f8da1c8d0004cd0d9f1fef16e8b86ed68674f7f0ecb0e20dbe",
    "contracts": "a5b13711427e59291c924efe466d2287f01d82c400a1f5940c86ad2c9f32f71d",
    "fault": "0d59ffdfd57bc9da39e3566441ff20f1b9dcb17e5713981174fb2d5cbbb07d5e",
    "scale": "b8484a13c76935d35eb89c22c3883fa128b1232a0c810c1017e540cf6daf92ef",
}


def test_selfcheck_all_four_sweeps_identical_chains():
    """Acceptance: every sweep's fixed-seed point yields a stable hash chain,
    and it is the committed one."""
    assert sorted(SCENARIOS) == sorted(CHAIN_HASHES)
    for scenario in sorted(SCENARIOS):
        result = selfcheck(scenario, seed=0)
        assert result.ok, f"{scenario}: {result.report}"
        assert result.hash_a == result.hash_b == CHAIN_HASHES[scenario], scenario
        assert result.events > 0


def test_selfcheck_cli_exits_zero(capsys):
    assert sanitizer_main(["selfcheck", "--sweep", "scale"]) == 0
    out = capsys.readouterr().out
    assert "scale: OK" in out


def test_chain_hashes_do_not_depend_on_the_interpreter_hash_seed():
    """The dynamic backstop of lint's ``ordered-iteration``: a double run in
    one process iterates every set in the same order twice, so only a second
    *interpreter* with another ``PYTHONHASHSEED`` sees hash order leak into a
    decision.  All four sweeps' chain hashes must come out equal."""
    src = Path(__file__).resolve().parent.parent / "src"

    def hash_lines(hash_seed):
        done = subprocess.run(
            [sys.executable, "-m", "repro.analysis.sanitizer", "selfcheck", "--all"],
            env={**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(src)},
            capture_output=True, text=True, check=True,
        )
        return [line for line in done.stdout.splitlines() if "hash=" in line]

    first = hash_lines("1")
    assert len(first) == len(SCENARIOS) and all(": OK hash=" in line for line in first)
    assert hash_lines("2") == first
