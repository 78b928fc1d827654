"""Cluster-level invariants of execute-once / replay-n-1 on the ledger.

ROADMAP "Hot-path invariants": applying the recorded entry must be
decision-for-decision identical to re-interpreting the block — same
per-replica ``stats``, state digests, receipts, client results and network
traffic for fixed seeds, whether peers replay or every replica executes.
"""

import collections

import pytest

from helpers import execute_everywhere, fault_point, unshare
from repro.core import execution_cache
from repro.experiments.harness import point_cluster
from repro.protocols.cluster import build_cluster
from repro.workloads.ethereum_workload import EthereumWorkload


def _run_cluster(protocol, post_build=None):
    cluster = build_cluster(
        protocol, f=1, c=1 if protocol == "sbft-c8" else None,
        num_clients=2, topology="continent", batch_size=2, seed=3,
    )
    cluster.post_build = post_build
    workload = EthereumWorkload(num_transactions=120, num_accounts=40, num_clients=2, seed=7)
    result = cluster.run(workload, max_sim_time=600.0, label=protocol)
    fingerprint = {
        "replica_stats": {rid: dict(r.stats) for rid, r in cluster.replicas.items()},
        "client_stats": {cid: dict(c.stats) for cid, c in cluster.clients.items()},
        "digests": {rid: r.service.digest() for rid, r in cluster.replicas.items()},
        "receipts": {rid: tuple(r.service.receipts) for rid, r in cluster.replicas.items()},
        "events": result.events_processed,
        "messages": result.network_messages,
        "bytes": result.network_bytes,
        "sim_time": result.sim_time,
        "completed": result.completed_operations,
        "mean_latency": result.mean_latency,
    }
    return fingerprint


@pytest.mark.parametrize("protocol", ["sbft-c8", "pbft"])
def test_fixed_seed_identical_with_cache_on_and_off(protocol, monkeypatch):
    replayed = _run_cluster(protocol)
    stats = execution_cache.stats()
    # Replay actually engaged: one miss per block, n-1 hits each.
    assert stats["misses"] > 0
    assert stats["hits"] >= stats["misses"]

    execute_everywhere(monkeypatch)
    assert _run_cluster(protocol) == replayed


@pytest.mark.parametrize("protocol", ["sbft-c8", "pbft"])
def test_fixed_seed_identical_with_nothing_shared(protocol):
    """The ledger half of the unshared differential (the KV half is the golden
    runs, tests/test_batching.py): with a private copy of every message per
    recipient nobody finds a replay entry, an operation cost or a digest
    somebody else stashed, and nothing a run decides moves."""
    shared = _run_cluster(protocol)
    blocks = execution_cache.stats()["misses"]
    assert _run_cluster(protocol, post_build=unshare) == shared
    n = len(shared["digests"])
    # Each replica dry-runs each block to price it (a miss) and applies the
    # entry it priced from when the block finishes (no second lookup).
    assert execution_cache.stats() == {"hits": 0, "misses": n * blocks}


def test_cache_shared_across_replicas_within_one_run():
    _run_cluster("sbft-c8")
    stats = execution_cache.stats()
    n = 3 * 1 + 2 * 1 + 1  # f=1, c=1 -> 6 replicas
    # Every block: the first replica to start it dry-runs it (the miss), the
    # other n-1 price it off the entry (the hits); each applies the entry it
    # priced from.
    assert stats["hits"] == (n - 1) * stats["misses"]


def test_counters_start_at_zero_for_every_run():
    """``Cluster._build`` zeroes the two counters and nothing else survives a
    run: a second run in the same process reads exactly what the first did."""
    _run_cluster("pbft")
    first = execution_cache.stats()
    _run_cluster("pbft")
    assert execution_cache.stats() == first
    assert set(first) == {"hits", "misses"}


def test_cache_hit_replays_the_journal_record_without_rejournaling(monkeypatch):
    """Only the dry run that records a block's entry computes its journal
    record; every replica, the first one included, appends that record
    through ``replay_block``."""
    from repro.services.authenticated_kv import AuthenticatedKVStore

    calls = {"journal_record": 0, "replay_block": 0}

    def counting(name):
        real = getattr(AuthenticatedKVStore, name)

        def wrapper(self, *args):
            calls[name] += 1
            return real(self, *args)

        monkeypatch.setattr(AuthenticatedKVStore, name, wrapper)

    counting("journal_record")
    counting("replay_block")
    fingerprint = _run_cluster("sbft-c8")
    stats = execution_cache.stats()
    executed = sum(stats_["blocks_executed"] for stats_ in fingerprint["replica_stats"].values())
    assert stats["misses"] > 0
    assert calls == {"journal_record": stats["misses"], "replay_block": executed}
    assert stats["hits"] + stats["misses"] == executed
    assert len(set(fingerprint["digests"].values())) == 1


def test_a_restored_replica_runs_each_block_once(monkeypatch):
    """On the fault sweep's crash-restart plan a backup crashes, restarts
    and is restored by state transfer; from then on its state key differs
    from its peers', so it dry-runs each block itself — once, to price it,
    and applies that entry when the block finishes."""
    from repro.services.authenticated_kv import AuthenticatedKVStore

    runs = collections.Counter()
    real = AuthenticatedKVStore.journal_record

    def counting(self, sequence, operations, results):
        runs[self, sequence] += 1
        return real(self, sequence, operations, results)

    monkeypatch.setattr(AuthenticatedKVStore, "journal_record", counting)
    point = fault_point("crash-restart")
    cluster = point_cluster(point)
    cluster.run(
        EthereumWorkload(num_transactions=1500, num_accounts=40, chunk_bytes=600,
                         num_clients=point.clients, seed=1),
        max_sim_time=point.max_sim_time,
    )
    restored = cluster.replicas[3]
    assert restored.stats["state_transfers"] >= 1
    assert sum(1 for service, _ in runs if service is restored.service) > 0
    assert sum(runs.values()) == execution_cache.stats()["misses"]
    assert max(runs.values()) == 1
    assert len({replica.service.digest() for replica in cluster.replicas.values()}) == 1
