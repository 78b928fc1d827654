"""Determinism checks on executed code: the sanitizer
(``repro.analysis.sanitizer``) and the clock trap around every run (every
committed fixed-seed value under two interpreter hash seeds is
tests/test_contract.py)."""

import random
import re
import textwrap
import time
from dataclasses import dataclass, field
from pathlib import Path

import pytest

import contract
from helpers import AMBIENT
from repro.analysis.sanitizer import (
    CountingRandom,
    SCENARIOS,
    first_divergence,
    format_divergence,
    selfcheck,
)
from repro.analysis.sanitizer import main as sanitizer_main
from repro.core.runtime import Replica
from repro.experiments.harness import run_point
from repro.protocols.cluster import build_cluster
from repro.sim.events import Simulator
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


def test_sanitize_defaults_off_and_a_sanitized_run_replays_the_plain_one():
    plain = _tiny_cluster().run(_tiny_workload())
    assert plain.decision_hash is None and plain.decision_trace is None

    sanitized = _tiny_cluster().run(_tiny_workload(), sanitize=True)
    assert sanitized.decision_hash is not None

    # The sanitized run replays the unsanitized one exactly (state-preserving
    # RNG clones): protocol outcomes are untouched by instrumentation.
    assert sanitized.run.completed_requests == plain.run.completed_requests
    assert sanitized.sim_time == plain.sim_time
    assert sanitized.events_processed == plain.events_processed


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_a_selfcheck_scenario_sanitized_replays_its_plain_run(scenario):
    """The one runner asks for the chain explicitly; without it, no chain."""
    plain = run_point(SCENARIOS[scenario])
    sanitized = run_point(SCENARIOS[scenario], sanitize=True)
    assert plain.decision_hash is None and sanitized.decision_hash is not None
    assert sanitized.run.completed_requests == plain.run.completed_requests
    assert sanitized.sim_time == plain.sim_time
    assert sanitized.events_processed == plain.events_processed
    assert sanitized.replica_stats == plain.replica_stats


def test_the_documented_golden_pair_bisect_runs_as_written(capsys):
    """docs/static-analysis.md's recipe, verbatim: on a healthy tree the
    shared and unshared chains are equal, so it prints nothing."""
    text = (Path(__file__).resolve().parent.parent / "docs" / "static-analysis.md").read_text()
    recipe = re.search(r"```python\n( *from helpers import run_small_cluster.*?)```", text, re.S)
    exec(textwrap.dedent(recipe.group(1)), {})
    assert capsys.readouterr().out == ""


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


def test_selfcheck_all_four_sweeps_identical_chains():
    """Acceptance: every sweep's fixed-seed point yields a stable hash chain,
    and it is the one in the fixed-seed contract (tests/contract.json)."""
    chains = contract.committed()["chain"]
    assert sorted(SCENARIOS) == sorted(chains)
    for scenario in sorted(SCENARIOS):
        result = selfcheck(scenario, seed=0)
        assert result.ok, f"{scenario}: {result.report}"
        assert result.hash_a == result.hash_b == chains[scenario]["decision_hash"], scenario
        assert result.events > 0


def test_selfcheck_cli_exits_zero(capsys):
    assert sanitizer_main(["selfcheck", "--sweep", "scale"]) == 0
    out = capsys.readouterr().out
    assert "scale: OK" in out


class _GlobalRandomWorkload(KVWorkload):
    def client_operations(self, client_id):
        random.random()
        return super().client_operations(client_id)


def test_a_clock_read_inside_a_run_fails_at_the_reading_line(monkeypatch):
    """The clock trap (``tests/conftest.py``) around a whole ``Cluster.run``:
    the workload it builds before the event loop, and every event."""
    line = _GlobalRandomWorkload.client_operations.__code__.co_firstlineno + 1
    with pytest.raises(AssertionError, match=re.escape(f"{__file__}:{line}: random.random()")):
        _tiny_cluster().run(_GlobalRandomWorkload(requests_per_client=3, batch_size=2, seed=5))

    broadcast = Replica._broadcast

    def broadcast_at_the_hosts_time(self, message):
        time.time()
        broadcast(self, message)

    monkeypatch.setattr(Replica, "_broadcast", broadcast_at_the_hosts_time)
    line = broadcast_at_the_hosts_time.__code__.co_firstlineno + 1
    with pytest.raises(AssertionError, match=re.escape(f"{__file__}:{line}: time.time()")):
        _tiny_cluster().run(_tiny_workload())


@pytest.mark.parametrize("module,name", AMBIENT, ids=[f"{m.__name__}.{n}" for m, n in AMBIENT])
def test_every_ambient_reader_is_trapped_inside_a_run_and_restored_after(module, name):
    """Each of ``AMBIENT`` fails an event that reads it, at the reading
    line, and is the host's own function again once the run is over."""
    original = getattr(module, name)

    def read():
        getattr(module, name)()

    sim = Simulator(seed=0)
    sim.schedule(0.0, read)
    line = read.__code__.co_firstlineno + 1
    with pytest.raises(AssertionError, match=re.escape(f"{__file__}:{line}: {module.__name__}.{name}()")):
        sim.run()
    assert getattr(module, name) is original
