"""The fixed-seed contract (``tests/contract.py``): every golden run, shared
and with nothing shared, every sanitizer chain and every golden episode
decides exactly what ``tests/contract.json`` holds, under two interpreter
hash seeds, and a failure names each field that moved."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import contract
from helpers import unshare
from repro.core.runtime import Replica


def _assert_holds(kind, name, entry):
    lines = contract.moved({kind: {name: entry}})
    assert not lines, "\n".join(lines[:20] + [f"({len(lines)} moved)"])


@pytest.mark.parametrize("post_build", [None, unshare], ids=["shared", "unshared"])
@pytest.mark.parametrize("name", list(contract.GOLDENS))
def test_golden_run_decides_what_the_contract_holds(name, post_build):
    """Also with nothing shared (``helpers.unshare``): if only that half
    fails, a stash is not a pure function of what its guard compares —
    docs/static-analysis.md says how to read the difference.  The cluster's
    agreement monitor finds no disagreement, and judges every replica but
    the plan's ``byzantine`` ones."""
    protocol, kwargs = contract.GOLDENS[name]
    result, entry = contract.golden_run(protocol, post_build=post_build, **kwargs)
    _assert_holds("golden", name, entry)
    assert result.disagreements == ()
    plan = kwargs.get("fault_plan")
    byzantine = {spec.replica_id for spec in plan.faults if spec.kind == "byzantine"} if plan else set()
    assert result.compromised == tuple(sorted(byzantine))
    assert bool(byzantine) == (name in contract.BYZANTINE_RUNS)


@pytest.mark.parametrize("kind,name", [
    (kind, name) for kind in ("chain", "episode") for name in contract.NAMES[kind]
])
def test_chain_and_episode_decide_what_the_contract_holds(kind, name):
    _assert_holds(kind, name, contract.KINDS[kind](name))


def test_one_extra_event_is_reported_by_golden_and_field(monkeypatch):
    """The known answer for every comparison above: one extra no-op event,
    scheduled by one replica handler, moves exactly the event count of the
    golden, and the failure says so by name and field."""
    handler = Replica._on_client_request
    planted = []

    def with_one_more_event(self, request, src):
        if not planted:
            planted.append(self.sim.schedule(0.0, lambda: None))
        handler(self, request, src)

    monkeypatch.setattr(Replica, "_on_client_request", with_one_more_event)
    name = "sbft-c0-seed11"
    events = contract.committed()["golden"][name]["events"]
    with pytest.raises(AssertionError) as failure:
        _assert_holds("golden", name, contract.KINDS["golden"](name))
    report = [line.strip() for line in str(failure.value).splitlines()[:2]]
    assert report == [f"golden {name}: events {events} → {events + 1}", "(1 moved)"]


_CHILD = """
import json, sys
sys.path[:0] = [{tests!r}, {src!r}]
{plant}
import contract
print(json.dumps(contract.compute()))
"""


def _moved_under_two_hash_seeds(plant=""):
    """Compute the whole contract in two interpreters at once, at
    ``PYTHONHASHSEED=1`` and ``=2`` (``plant`` is source run first in each),
    and name every field that is not the committed one."""
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
        moved += [f"PYTHONHASHSEED={seed}: {line}" for line in contract.moved(json.loads(out))]
    return moved


def test_every_committed_value_holds_under_two_interpreter_hash_seeds():
    """A double run in one process iterates every set in the same order
    twice, so only another interpreter with another ``PYTHONHASHSEED`` sees
    hash order leak into a decision.  ``str`` and ``bytes`` hashes (and the
    tuples and frozensets holding them) are salted per seed; ``int`` hashes
    are not, so a set of replica ids iterates alike under every seed."""
    names = {kind: sorted(names) for kind, names in contract.NAMES.items()}
    assert {kind: sorted(entries) for kind, entries in contract.committed().items()} == names
    moved = _moved_under_two_hash_seeds()
    assert not moved, "\n".join(moved[:40])


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
    assert any(line.startswith("PYTHONHASHSEED=1: golden ") for line in moved), moved[:10]
    assert any(line.startswith("PYTHONHASHSEED=2: golden ") for line in moved), moved[:10]
