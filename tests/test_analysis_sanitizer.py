"""Determinism checks on executed code: the sanitizer
(``repro.analysis.sanitizer``), every committed fixed-seed value under two
interpreter hash seeds, and the clock trap around every run."""

import json
import os
import random
import re
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from helpers import AMBIENT, clocks_trapped_in_runs, run_fingerprint
from repro.analysis.sanitizer import (
    CountingRandom,
    SCENARIOS,
    first_divergence,
    format_divergence,
    selfcheck,
)
from repro.analysis.sanitizer import main as sanitizer_main
from repro.core.runtime import Replica
from repro.protocols.cluster import build_cluster
from repro.sim.events import Simulator
from repro.workloads.kv_workload import KVWorkload
from test_adversary_behaviours import GOLDEN_BYZANTINE_RUNS
from test_batching import GOLDEN_FAULT_RUNS, GOLDEN_RUNS


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


#: The 26 golden runs: name -> (protocol, ``run_fingerprint`` kwargs, committed
#: fingerprint).
GOLDENS = {
    **{f"{p}-seed{k['seed']}": (p, k, e) for p, k, e in GOLDEN_RUNS},
    **{name: (p, k, e) for name, p, k, e in GOLDEN_FAULT_RUNS + GOLDEN_BYZANTINE_RUNS},
}
#: Every fixed-seed value tier-1 commits, by name: the golden fingerprints
#: and the four sanitizer chain hashes.
COMMITTED = {
    **{f"golden {name}": e for name, (_p, _k, e) in GOLDENS.items()},
    **{f"chain {name}": chain for name, chain in CHAIN_HASHES.items()},
}


def fixed_seed_values():
    """What ``COMMITTED`` holds, computed afresh: every golden (shared) and
    every scenario's chain, each run inside the clock trap."""
    with clocks_trapped_in_runs():
        values = {f"golden {name}": run_fingerprint(p, **k) for name, (p, k, _e) in GOLDENS.items()}
        values.update({f"chain {name}": selfcheck(name).hash_a for name in SCENARIOS})
    return values


_CHILD = """
import json, sys
sys.path[:0] = [{tests!r}, {src!r}]
{plant}
from test_analysis_sanitizer import fixed_seed_values
print(json.dumps(fixed_seed_values()))
"""


def _moved_under_two_hash_seeds(plant=""):
    """Compute every committed value in two interpreters at once, at
    ``PYTHONHASHSEED=1`` and ``=2`` (``plant`` is source run first in each),
    and name every value that is not the committed one."""
    tests = Path(__file__).resolve().parent
    script = _CHILD.format(tests=str(tests), src=str(tests.parent / "src"), plant=plant)
    children = {
        seed: subprocess.Popen(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONHASHSEED": seed},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for seed in ("1", "2")
    }
    moved = []
    for seed, child in children.items():
        out, err = child.communicate()
        assert child.returncode == 0, err
        values = json.loads(out)
        moved += [
            f"PYTHONHASHSEED={seed}: {name} is {values[name][:12]}, committed {committed[:12]}"
            for name, committed in COMMITTED.items() if values[name] != committed
        ]
    return moved


def test_every_committed_value_holds_under_two_interpreter_hash_seeds():
    """A double run in one process iterates every set in the same order
    twice, so only another interpreter with another ``PYTHONHASHSEED`` sees
    hash order leak into a decision.  ``str`` and ``bytes`` hashes (and the
    tuples and frozensets holding them) are salted per seed; ``int`` hashes
    are not, so a set of replica ids iterates alike under every seed."""
    assert len(COMMITTED) == 30
    moved = _moved_under_two_hash_seeds()
    assert not moved, "\n".join(moved)


_STR_SET_BROADCAST = """
from repro.core.runtime import Replica

def _broadcast(self, message):
    if self.crashed:
        return
    peers = [int(peer) for peer in {str(peer) for peer in self._peers_all}]
    self.network.broadcast_bulk(self.node_id, message, peers)

Replica._broadcast = _broadcast
"""


def test_a_broadcast_in_hash_order_moves_goldens_under_another_hash_seed():
    """The known answer for the test above: a broadcast that orders its peers
    through a set of strings is caught at both hash seeds, by name."""
    moved = _moved_under_two_hash_seeds(plant=_STR_SET_BROADCAST)
    assert any(line.startswith("PYTHONHASHSEED=1: golden ") for line in moved), moved
    assert any(line.startswith("PYTHONHASHSEED=2: golden ") for line in moved), moved


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
