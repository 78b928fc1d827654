"""The fixed-seed contract: every named run tier-1 pins, and what it decided.

A run is a pure function of its seeds, so ``tests/contract.json`` commits
what each named run decides: a *golden* (``helpers.run_small_cluster``), a
sanitizer selfcheck *chain* at seed 0 and an adversary *episode*.
:func:`compute` recomputes every entry and :func:`moved` names each field
that differs from the file (``golden sbft-c0-seed11: events 313 → 314``).
A change that *means* to move the contract rewrites the file with
``PYTHONPATH=src python tests/contract.py``; the file's diff is what moved.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from pathlib import Path

from helpers import clocks_trapped_in_runs, executed_histories, run_small_cluster
from repro.adversary.behaviours import bad_shares, equivocate, silent, stale_view_change
from repro.adversary.search import episode_point, verdict
from repro.analysis.sanitizer import SCENARIOS, run_scenario
from repro.experiments.harness import run_point
from repro.sim.faults import FaultPlan

PATH = Path(__file__).with_name("contract.json")

#: Fixed-seed runs of the default configuration (``batch_policy="fixed"``,
#: ``client_max_outstanding=1``), first captured on the commit before the
#: batch-policy layer and the pipelined client landed.
RUNS = {
    f"{protocol}-seed{kwargs['seed']}": (protocol, kwargs) for protocol, kwargs in [
        ("sbft-c0", dict(f=1, num_clients=2, requests_per_client=6, seed=11)),
        ("sbft-c8", dict(f=1, c=1, num_clients=2, requests_per_client=6, seed=11)),
        ("pbft", dict(f=1, num_clients=2, requests_per_client=6, seed=11)),
        ("sbft-c0", dict(f=2, num_clients=4, requests_per_client=5, batch_size=4,
                         topology="continent", seed=7)),
    ]
}

#: Runs through the code paths both replica stacks share — view change after
#: a primary crash, the slow path and fast-path timers under crashed backups,
#: restart + state-transfer rejoin, adaptive batching with pipelined clients.
#: The three faulted SBFT runs that reach the slow path (both primary
#: crashes, crashed backups) enter degraded mode: from the second
#: consecutive slow commit on the collector skips the σ wait and replicas
#: answer clients directly (docs/architecture.md).
_CRASH_THEN_RESTART = FaultPlan.crash_first(1, at_time=0.02, node_ids=[3])
_PIPELINED_ADAPTIVE = {"batch_policy": "adaptive", "client_max_outstanding": 4}
FAULT_RUNS = {
    "sbft-c0-primary-crash-f1": ("sbft-c0", dict(
        f=1, num_clients=2, requests_per_client=8, seed=3,
        fault_plan=FaultPlan.crash_first(1, at_time=0.02))),
    "sbft-c0-primary-crash-f2-continent": ("sbft-c0", dict(
        f=2, num_clients=4, requests_per_client=6, batch_size=4, topology="continent", seed=5,
        fault_plan=FaultPlan.crash_first(1, at_time=0.3))),
    "sbft-c8-crashed-backups": ("sbft-c8", dict(
        f=1, c=1, num_clients=2, requests_per_client=8, seed=4,
        fault_plan=FaultPlan.crash_backups(2, 6, at_time=0.02))),
    "pbft-primary-crash-f2-lan": ("pbft", dict(
        f=2, num_clients=4, requests_per_client=6, topology="lan", seed=6,
        fault_plan=FaultPlan.crash_first(1, at_time=0.02))),
    "sbft-c0-restart-state-transfer": ("sbft-c0", dict(
        f=1, num_clients=2, requests_per_client=40, seed=9,
        fault_plan=_CRASH_THEN_RESTART.extend(FaultPlan.restart([3], at_time=0.1)))),
    "pbft-restart-state-transfer": ("pbft", dict(
        f=1, num_clients=2, requests_per_client=40, seed=9,
        fault_plan=_CRASH_THEN_RESTART.extend(FaultPlan.restart([3], at_time=0.08)))),
    "sbft-c8-adaptive-pipelined": ("sbft-c8", dict(
        f=1, c=1, num_clients=4, requests_per_client=12, seed=12,
        config_overrides=_PIPELINED_ADAPTIVE)),
    "pbft-adaptive-pipelined": ("pbft", dict(
        f=1, num_clients=4, requests_per_client=12, seed=12,
        config_overrides=_PIPELINED_ADAPTIVE)),
}

#: Each byzantine behaviour on every protocol stack that supports it, plus
#: runs through the paths a behaviour must *not* touch: re-proposals by an
#: equivocating new primary (``next-primary``), a share forger's checkpoint π
#: share (``linear-pbft`` has no execution collectors) and its view-change σ
#: evidence (``then-view-change``); tests/test_adversary_behaviours.py pins
#: those on one replica.  Pinned since before the behaviours moved out of the
#: replica classes: no refactor of where adversary code lives may move them.
#: The six ``sbft-c0`` runs that leave the fast path enter degraded mode.
_PRIMARY_CRASH = FaultPlan.crash_first(1, at_time=0.02)
BYZANTINE_RUNS = {
    "silent-primary-sbft-c0": ("sbft-c0", dict(
        f=1, num_clients=2, requests_per_client=8, seed=21,
        fault_plan=FaultPlan.byzantine([0], silent, 0.02))),
    "silent-primary-pbft": ("pbft", dict(
        f=1, num_clients=2, requests_per_client=8, seed=21,
        fault_plan=FaultPlan.byzantine([0], silent, 0.02))),
    "silent-backup-sbft-c8": ("sbft-c8", dict(
        f=1, c=1, num_clients=2, requests_per_client=8, seed=22,
        fault_plan=FaultPlan.byzantine([4], silent, 0.01))),
    "equivocate-primary-sbft-c0": ("sbft-c0", dict(
        f=1, num_clients=2, requests_per_client=8, seed=23,
        fault_plan=FaultPlan.byzantine([0], equivocate, 0.0))),
    "equivocate-primary-pbft": ("pbft", dict(
        f=1, num_clients=2, requests_per_client=8, seed=23,
        fault_plan=FaultPlan.byzantine([0], equivocate, 0.0))),
    "equivocate-next-primary-sbft-c0-f2": ("sbft-c0", dict(
        f=2, num_clients=4, requests_per_client=6, seed=24,
        fault_plan=_PRIMARY_CRASH.extend(FaultPlan.byzantine([1], equivocate, 0.0)))),
    "equivocate-next-primary-pbft-f2": ("pbft", dict(
        f=2, num_clients=4, requests_per_client=6, seed=24,
        fault_plan=_PRIMARY_CRASH.extend(FaultPlan.byzantine([1], equivocate, 0.0)))),
    "stale-viewchange-sbft-c0": ("sbft-c0", dict(
        f=1, num_clients=2, requests_per_client=8, seed=25,
        fault_plan=_PRIMARY_CRASH.extend(FaultPlan.byzantine([3], stale_view_change, 0.0)))),
    "stale-viewchange-pbft": ("pbft", dict(
        f=1, num_clients=2, requests_per_client=8, seed=25,
        fault_plan=_PRIMARY_CRASH.extend(FaultPlan.byzantine([3], stale_view_change, 0.0)))),
    "stale-viewchange-sbft-c0-f2-continent": ("sbft-c0", dict(
        f=2, num_clients=4, requests_per_client=6, batch_size=4, topology="continent", seed=26,
        fault_plan=FaultPlan.crash_first(1, at_time=0.3).extend(
            FaultPlan.byzantine([5, 6], stale_view_change, 0.1)))),
    "bad-shares-sbft-c0": ("sbft-c0", dict(
        f=1, num_clients=2, requests_per_client=8, seed=27,
        fault_plan=FaultPlan.byzantine([3], bad_shares, 0.0))),
    "bad-shares-sbft-c8": ("sbft-c8", dict(
        f=1, c=1, num_clients=2, requests_per_client=8, seed=27,
        fault_plan=FaultPlan.byzantine([5], bad_shares, 0.01))),
    "bad-shares-linear-pbft": ("linear-pbft", dict(
        f=1, num_clients=2, requests_per_client=20, seed=28,
        config_overrides={"checkpoint_interval": 4},
        fault_plan=FaultPlan.byzantine([2], bad_shares, 0.0))),
    "bad-shares-then-view-change-sbft-c0-f2": ("sbft-c0", dict(
        f=2, num_clients=4, requests_per_client=6, seed=29,
        fault_plan=_PRIMARY_CRASH.extend(FaultPlan.byzantine([4], bad_shares, 0.0)))),
}

#: Name -> (protocol, ``run_small_cluster`` kwargs) of all 26 golden runs.
GOLDENS = {**RUNS, **FAULT_RUNS, **BYZANTINE_RUNS}

#: ``viewchange-spam`` with ``equivocate_claims``: per view, the spammer's
#: honest view-change message and a stale one built by the same replica.
EPISODES = {
    f"viewchange-spam-{protocol}": episode_point(
        protocol, "viewchange-spam", 31,
        params={"count": 12, "equivocate_claims": True, "jump": 3, "period": 0.01, "start": 0.0},
    )
    for protocol in ("sbft-c0", "pbft")
}


def _plain(payload):
    """``payload`` as it reads back from JSON: str keys, lists for tuples."""
    return json.loads(json.dumps(payload, sort_keys=True))


def golden_run(protocol, post_build=None, **kwargs):
    """``(result, golden entry)`` of one fixed-seed ``run_small_cluster`` run;
    the result carries the agreement verdicts, which the file does not hold."""
    cluster, result = run_small_cluster(protocol, post_build=post_build, **kwargs)
    return result, _plain({
        "stats": {rid: dict(r.stats) for rid, r in cluster.replicas.items()},
        "histories": executed_histories(cluster),
        "client_stats": {cid: dict(c.stats) for cid, c in cluster.clients.items()},
        "network_messages": result.network_messages,
        "events": cluster.sim.events_processed,
        "now": round(cluster.sim.now, 9),
        "completed": result.run.completed_requests,
    })


def golden(protocol, post_build=None, **kwargs):
    """Everything a fixed-seed ``run_small_cluster`` run decided."""
    return golden_run(protocol, post_build=post_build, **kwargs)[1]


def _summed(stats):
    total = Counter()
    for counters in stats.values():
        total.update(counters)
    return total


def chain(name):
    """One sanitized run of the selfcheck scenario ``name`` at seed 0."""
    result = run_scenario(name, seed=0)
    return _plain({
        "decision_hash": result.decision_hash,
        "events": result.events_processed,
        "sim_time": round(result.sim_time, 9),
        "replica_stats": _summed(result.replica_stats),
        "client_stats": _summed(result.client_stats),
        "network_messages": result.network_messages,
        "network_bytes": result.network_bytes,
        "per_type_messages": result.per_type_messages,
    })


def episode(name):
    """The verdicts and evidence count of episode ``name``."""
    point = EPISODES[name]
    result = run_point(point)
    return _plain({
        "verdict": verdict(point, result),
        "completed": result.run.completed_requests,
        "compromised": result.compromised,
        "evidence": len(result.evidence),
        "sim_time": round(result.sim_time, 9),
        "events": result.events_processed,
    })


#: Kind -> the function computing one named entry of that kind.
KINDS = {"golden": lambda name: golden(GOLDENS[name][0], **GOLDENS[name][1]),
         "chain": chain, "episode": episode}
NAMES = {"golden": GOLDENS, "chain": sorted(SCENARIOS), "episode": EPISODES}


def compute():
    """Every entry of the contract, computed afresh inside the clock trap."""
    with clocks_trapped_in_runs():
        return {kind: {name: KINDS[kind](name) for name in NAMES[kind]} for kind in KINDS}


@functools.cache
def committed():
    return json.loads(PATH.read_text())


_ABSENT = object()


def _show(value):
    return "absent" if value is _ABSENT else json.dumps(value)[:80]


def diff(old, new, path=""):
    """``path old → new`` for every leaf at which ``new`` differs from ``old``."""
    if type(old) is type(new) is list:
        old, new = dict(enumerate(old)), dict(enumerate(new))
    if type(old) is type(new) is dict:
        return [
            line for key in sorted(old | new)
            for line in diff(old.get(key, _ABSENT), new.get(key, _ABSENT),
                             f"{path}.{key}".lstrip("."))
        ]
    if type(old) is type(new) and old == new:
        return []
    return [f"{path} {_show(old)} → {_show(new)}".lstrip()]


def moved(computed):
    """Every field of ``computed`` (all of :func:`compute`, or any part of
    it: ``{kind: {name: entry}}``) that is not the committed one, as
    ``kind name: field old → new``."""
    contract = committed()
    return [
        f"{kind} {name}: {line}"
        for kind, entries in sorted(computed.items())
        for name, entry in sorted(entries.items())
        for line in diff(contract.get(kind, {}).get(name, _ABSENT), entry)
    ]


def _dump(value, indent=""):
    """JSON with one line per scalar or list of scalars, keys sorted."""
    inner = indent + " "
    if isinstance(value, dict) and value:
        items = [f"{inner}{json.dumps(key)}: {_dump(value[key], inner)}" for key in sorted(value)]
        return "{\n" + ",\n".join(items) + f"\n{indent}}}"
    if isinstance(value, list) and any(isinstance(item, (dict, list)) for item in value):
        return "[\n" + ",\n".join(inner + _dump(item, inner) for item in value) + f"\n{indent}]"
    return json.dumps(value)


def main():
    PATH.write_text(_dump(compute()) + "\n")


if __name__ == "__main__":
    main()
