"""Peers hold the recorder's entry itself, never a copy of it.

All n replicas of a simulated cluster share one process, so anything a
replica copies out of the block's replay entry costs n times.  For every
executed sequence, every replica's journal (``_journal_trees[s]``, whose
leaves live only there, and ``_journal_results[s]``) and its log slot's
``execution_results`` must be the very objects the replay entry holds; a
reintroduced ``list(...)`` anywhere on the replay path fails the identity
checks below.  They are read as each replica executes the block
(:func:`hold_records`): the stable point collects slot and journal block
soon after.  State transfer is the one place that copies (``snapshot``
deep-copies the results), and a replica restored that way must still prove
and verify every block it holds.
"""

import pytest

from helpers import on_execute, run_small_cluster
from repro.core import execution_cache
from repro.crypto.merkle import MerkleTree
from repro.protocols.cluster import build_cluster
from repro.workloads.ethereum_workload import EthereumWorkload
from test_kv_execution_cache import _run_crash_restart


@pytest.fixture
def recorded(monkeypatch):
    """``(operations, state key, entry)`` of every replay entry a recorder
    offered a block (the block frees it once every replica applied it)."""
    blocks = []
    real = execution_cache.store

    def spy(operations, state_key, entry):
        blocks.append((operations, state_key, entry))
        real(operations, state_key, entry)

    monkeypatch.setattr(execution_cache, "store", spy)
    return blocks


def _entries_by_sequence(blocks):
    """sequence -> the replay entry peers read (one per block in a healthy run)."""
    by_sequence = {}
    for _operations, state_key, entry in blocks:
        assert state_key[-1] not in by_sequence, "a healthy run executes each block once"
        by_sequence[state_key[-1]] = entry
    return by_sequence


def hold_records(cluster):
    """``Cluster.post_build`` hook: as a replica executes block s, keep what
    its journal and its slot then hold for it, in
    ``cluster.held[node][s] = (journal results, journal tree, slot results)``."""
    cluster.held = {node: {} for node in cluster.replicas}

    def hold(replica, sequence, digest):
        journal = replica.service
        cluster.held[replica.node_id][sequence] = (
            journal._journal_results[sequence], journal._journal_trees[sequence],
            replica.log.peek(sequence).execution_results)

    on_execute(cluster, hold)


def _assert_peers_hold_the_record(cluster, blocks):
    entries = _entries_by_sequence(blocks)
    assert entries
    for held in cluster.held.values():
        assert sorted(held) == sorted(entries)
        for sequence, entry in entries.items():
            results, tree = entry[0], entry[-1][0]
            assert type(results) is tuple and type(tree.leaves) is tuple
            journal_results, journal_tree, slot_results = held[sequence]
            assert journal_results is results and slot_results is results
            assert journal_tree is tree


@pytest.mark.parametrize("protocol", ["sbft-c0", "pbft"])
def test_every_replica_holds_the_replay_entry_tuples(protocol, recorded):
    cluster, result = run_small_cluster(
        protocol, f=1, num_clients=2, requests_per_client=6, seed=11, post_build=hold_records)
    assert result.run.completed_requests == 12
    _assert_peers_hold_the_record(cluster, recorded)


def test_ledger_peers_hold_the_replay_entry_tuples(recorded):
    cluster = build_cluster("sbft-c0", f=1, num_clients=2, topology="lan", batch_size=2, seed=3)
    cluster.post_build = hold_records
    cluster.run(EthereumWorkload(num_transactions=24, num_accounts=12, num_clients=2, seed=7))
    _assert_peers_hold_the_record(cluster, recorded)


def test_the_sharing_check_fails_on_a_copied_journal(recorded):
    cluster, _ = run_small_cluster(
        "sbft-c0", f=1, num_clients=2, requests_per_client=2, seed=11, post_build=hold_records)
    peer = cluster.held[1]
    sequence = min(peer)
    results, tree, slot_results = peer[sequence]
    peer[sequence] = (list(results), tree, slot_results)  # equal, not identical
    with pytest.raises(AssertionError):
        _assert_peers_hold_the_record(cluster, recorded)
    peer[sequence] = (results, tree, slot_results)
    _assert_peers_hold_the_record(cluster, recorded)
    # A peer that rebuilt the tree from the shared leaves holds a copy too.
    peer[sequence] = (results, MerkleTree(tree.leaves), slot_results)
    with pytest.raises(AssertionError):
        _assert_peers_hold_the_record(cluster, recorded)


def test_a_replica_restored_by_state_transfer_proves_and_verifies_its_blocks(recorded):
    cluster, _ = _run_crash_restart()
    restarted = cluster.replicas[3]
    assert restarted.stats["state_transfers"] >= 1
    operations_at = {state_key[-1]: operations for operations, state_key, _entry in recorded}
    service = restarted.service
    assert service._block_order
    for sequence in service._block_order:
        operations = operations_at[sequence]
        digest = service._digest_at[sequence]
        for position, operation in enumerate(operations):
            proof = service.prove(sequence, position)
            value = service._journal_results[sequence][position].value
            assert service.verify(digest, operation, value, sequence, position, proof)
