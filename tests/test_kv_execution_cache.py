"""Execute-once / replay-n-1 on the KV store (mirrors
``tests/test_execution_cache.py``, which pins the same invariants for the
ledger).

ROADMAP "Hot-path invariants": applying the recorded entry must be
decision-for-decision identical to re-executing the block — same per-replica
``stats``, journal entries, proofs, chain digests, client results and network
traffic for fixed seeds, whether peers replay or every replica executes — and
the entry rides on the one ``BlockOperations`` the replicas share, recorded
with the state it was executed from: any out-of-band state mutation
(``restore`` on state transfer, direct ``put``/``execute``) changes the state
key, so a diverged store executes for itself and leaves the entry alone.
"""

import pytest

from helpers import assert_agreement, execute_everywhere, fault_point
from repro.core.execution_cache import clear, stats
from repro.core.messages import ClientRequest, PrePrepare
from repro.core.runtime import block_operations
from repro.crypto.costs import DEFAULT_COSTS
from repro.experiments.harness import point_cluster
from repro.protocols.cluster import build_cluster
from repro.services.authenticated_kv import AuthenticatedKVStore
from repro.services.interface import BlockOperations
from repro.workloads.kv_workload import KVWorkload


def _run_kv_cluster(protocol):
    cluster = build_cluster(
        protocol, f=1, c=1 if protocol == "sbft-c8" else None,
        num_clients=2, topology="continent", batch_size=2, seed=3,
    )
    workload = KVWorkload(requests_per_client=8, batch_size=4, seed=7)
    result = cluster.run(workload, max_sim_time=600.0, label=protocol)
    fingerprint = {
        "replica_stats": {rid: dict(r.stats) for rid, r in cluster.replicas.items()},
        "client_stats": {cid: dict(c.stats) for cid, c in cluster.clients.items()},
        "digests": {rid: r.service.digest() for rid, r in cluster.replicas.items()},
        # Full journal byte-identity: entries, results and raw store contents
        # (snapshot preserves dict insertion order, so replayed deltas must
        # land in exactly the order an uncached execution would produce).
        "snapshots": {rid: r.service.snapshot() for rid, r in cluster.replicas.items()},
        "events": result.events_processed,
        "messages": result.network_messages,
        "bytes": result.network_bytes,
        "sim_time": result.sim_time,
        "completed": result.completed_operations,
        "mean_latency": result.mean_latency,
    }
    return fingerprint


@pytest.mark.parametrize("protocol", ["sbft-c0", "sbft-c8", "pbft"])
def test_fixed_seed_identical_with_cache_on_and_off(protocol, monkeypatch):
    replayed = _run_kv_cluster(protocol)
    cache_stats = stats()
    # Replay actually engaged: one miss per block, n-1 hits each.
    assert cache_stats["misses"] > 0
    assert cache_stats["hits"] >= cache_stats["misses"]

    execute_everywhere(monkeypatch)
    assert _run_kv_cluster(protocol) == replayed


def test_cache_shared_across_replicas_within_one_run():
    _run_kv_cluster("sbft-c8")
    cache_stats = stats()
    n = 3 * 1 + 2 * 1 + 1  # f=1, c=1 -> 6 replicas
    # Every block: first replica misses, the other n-1 replay.
    assert cache_stats["hits"] == (n - 1) * cache_stats["misses"]


# ----------------------------------------------------------------------
# Service-level correctness edges: executed vs replayed identity, and who
# may replay what
# ----------------------------------------------------------------------
@pytest.fixture
def counters():
    """Zeroed hit/miss counters (``Cluster._build`` does this for a run)."""
    clear()
    return stats


def _block(sequence):
    """A decision block whose results depend on the pre-state (gets do): the
    one ``BlockOperations`` every replica of a cluster is handed."""
    return sequence, BlockOperations([
        AuthenticatedKVStore.make_put(f"k{sequence}", f"v{sequence}"),
        AuthenticatedKVStore.make_get("x"),
        AuthenticatedKVStore.make_put("x", f"x{sequence}"),
        AuthenticatedKVStore.make_get("x"),
    ])


def test_warm_replay_is_decision_identical_to_cold_execution(counters):
    cold, warm = AuthenticatedKVStore(), AuthenticatedKVStore()
    blocks = [_block(sequence) for sequence in (1, 2, 3)]
    for seq, ops in blocks:
        cold_results = cold.execute_block(seq, ops)
        warm_results = warm.execute_block(seq, ops)
        assert warm_results == cold_results
    assert counters() == {"hits": 3, "misses": 3}

    # Chain digests, journal records, proofs and raw contents all match.
    assert warm.digest() == cold.digest()
    assert warm.snapshot() == cold.snapshot()
    for sequence in (1, 2, 3):
        assert warm._digest_at[sequence] == cold._digest_at[sequence]
        for position in range(4):
            assert warm.prove(sequence, position) == cold.prove(sequence, position)
            assert warm._journal_results[sequence][position] == cold._journal_results[sequence][position]
    # Replayed proofs verify like executed ones.
    proof = warm.prove(2, 1)
    operation = blocks[1][1][1]
    value = warm._journal_results[2][1].value
    assert warm.verify(proof.digest, operation, value, 2, 1, proof)


@pytest.mark.parametrize("container", [list, tuple])
def test_a_plain_sequence_never_shares(container, counters):
    """Only the ``BlockOperations`` of a shared plan carries an entry: equal
    operations in any other sequence are executed by everyone, and nothing is
    left on them."""
    first, second = AuthenticatedKVStore(), AuthenticatedKVStore()
    seq, ops = _block(1)
    plain = container(ops)
    assert second.execute_block(seq, plain) == first.execute_block(seq, plain)
    assert counters() == {"hits": 0, "misses": 2}
    assert second.snapshot() == first.snapshot()
    assert not hasattr(plain, "replay") and ops.replay is None


def test_direct_put_invalidates_fingerprint(counters):
    first, diverged = AuthenticatedKVStore(), AuthenticatedKVStore()
    seq, ops = _block(1)
    first_results = first.execute_block(seq, ops)
    assert first_results[1].value is None  # "x" unset at genesis
    recorded = ops.replay

    # Out-of-band write: same block, different pre-state.
    diverged._store.put("x", "boom")
    diverged_results = diverged.execute_block(seq, ops)
    assert diverged_results[1].value == "boom"
    assert counters() == {"hits": 0, "misses": 2}
    assert ops.replay is recorded  # the recorder's entry stands


def test_direct_execute_invalidates_fingerprint(counters):
    first, diverged = AuthenticatedKVStore(), AuthenticatedKVStore()
    seq, ops = _block(1)
    first.execute_block(seq, ops)

    diverged.execute(AuthenticatedKVStore.make_put("x", "oob"))
    diverged_results = diverged.execute_block(seq, ops)
    assert diverged_results[1].value == "oob"
    assert counters() == {"hits": 0, "misses": 2}


def test_restore_invalidates_fingerprint_but_stays_identical(counters):
    donor, peer = AuthenticatedKVStore(), AuthenticatedKVStore()
    seq1, ops1 = _block(1)
    donor.execute_block(seq1, ops1)
    peer.execute_block(seq1, ops1)

    # A rejoining replica restores the donor's snapshot: equal state and
    # chain, but its fingerprint anchor is the restore point — so it must
    # execute (miss), never replay an entry recorded from a genesis anchor,
    # and must leave that entry to the replicas it belongs to.
    rejoined = AuthenticatedKVStore()
    rejoined.restore(donor.snapshot())
    assert rejoined.digest() == donor.digest()
    assert counters() == {"hits": 1, "misses": 1}

    seq2, ops2 = _block(2)
    donor_results = donor.execute_block(seq2, ops2)
    recorded = ops2.replay
    rejoined_results = rejoined.execute_block(seq2, ops2)
    assert counters() == {"hits": 1, "misses": 3}
    assert ops2.replay is recorded
    assert peer.execute_block(seq2, ops2) == donor_results
    assert counters() == {"hits": 2, "misses": 3}
    # Decision-identity still holds across the restore.
    assert rejoined_results == donor_results
    assert rejoined.digest() == donor.digest() == peer.digest()
    assert rejoined.snapshot() == donor.snapshot()


def test_block_reproposed_in_a_new_view_executes_once_more(counters):
    """A new view re-proposes the block in a new ``PrePrepare``, whose plan is
    a new ``BlockOperations``: the replicas that execute it from there find no
    entry, one of them executes and the rest replay *that*; the entry left on
    the old view's plan is never consulted again."""
    service = AuthenticatedKVStore()
    _seq, ops = _block(1)
    request = ClientRequest(client_id=0, timestamp=1, operations=tuple(ops))

    def proposal(view):
        message = PrePrepare(sequence=1, view=view, requests=(request,), digest=f"d{view}")
        return block_operations(message, service, DEFAULT_COSTS)

    old_view, new_view = proposal(0), proposal(1)
    assert old_view == new_view and old_view is not new_view

    ahead = AuthenticatedKVStore()
    expected = ahead.execute_block(1, old_view)
    assert counters() == {"hits": 0, "misses": 1}
    stale = old_view.replay
    assert stale is not None and new_view.replay is None

    # Same genesis state, same operations, same state key — and still no
    # replay of the old plan's entry: one more execution, then n-1 replays.
    behind = [AuthenticatedKVStore() for _ in range(3)]
    assert [replica.execute_block(1, new_view) for replica in behind] == [expected] * 3
    assert counters() == {"hits": 2, "misses": 2}
    assert old_view.replay is stale and new_view.replay is not stale
    assert new_view.replay[0] == stale[0]
    assert {replica.digest() for replica in behind} == {ahead.digest()}


# ----------------------------------------------------------------------
# Crash-restart: a rejoining replica's state transfer lands on a replaying
# deployment (the restored store re-fingerprints and executes for itself),
# and the run is byte-identical when every replica executes.
# ----------------------------------------------------------------------
def _run_crash_restart(seed=0):
    point = fault_point("crash-restart", seed=seed)
    cluster = point_cluster(point)
    result = cluster.run(
        point.workload.build(point),
        max_sim_time=point.max_sim_time,
        timeline_bucket=point.timeline_bucket,
        fault_phase=point.fault_phase,
    )
    return cluster, result


def _crash_restart_outcome(cluster, result):
    return (
        {rid: dict(r.stats) for rid, r in cluster.replicas.items()},
        cluster.replicas[0].service.digest(),
        result.events_processed,
        result.network_messages,
        result.network_bytes,
        result.sim_time,
    )


def test_crash_restart_state_transfer_on_cached_deployment(monkeypatch):
    cluster, result = _run_crash_restart()
    cache_stats = stats()
    assert cache_stats["misses"] > 0
    assert cache_stats["hits"] > 0

    restarted = cluster.replicas[3]
    assert restarted.stats["state_transfers"] >= 1
    digests = {replica.service.digest() for replica in cluster.replicas.values()}
    assert len(digests) == 1, "restarted replica must re-sync to the cluster digest"
    assert restarted.last_executed == cluster.replicas[0].last_executed
    assert_agreement(cluster)
    replayed = _crash_restart_outcome(cluster, result)

    execute_everywhere(monkeypatch)
    assert _crash_restart_outcome(*_run_crash_restart()) == replayed
