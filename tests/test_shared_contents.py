"""Replicas at one state hold one copy of it, copy-on-write.

Every replica that priced a block off the recorded replay entry applies it
from the same pre-state, so ``AuthenticatedKVStore._apply`` lets the first of
them build the post-state and the others adopt that object
(``KVStore.share`` / ``KVStore.adopt``).  Three properties pin it, on the
key-value store and on the ledger:

* a shared version is never mutated: any direct write, delete, ``execute``,
  ``restore``, ``fund`` or ``apply`` on one store leaves its peer's contents,
  fingerprint and digest as they were;
* healthy fixed-seed clusters end with every replica holding the identical
  contents object, and with nothing shared (``helpers.unshare``) with one
  equal object each, deciding the same;
* nothing but a store keeps a version alive (the handle on the block is
  weak), so a crashed replica's stale version pins nothing later, and a
  replica restored by state transfer starts from a private copy.
"""

import gc
import weakref

import pytest

from helpers import crash_restart_cluster, run_small_cluster, unshare
from repro.evm.transactions import Transaction
from repro.protocols.cluster import build_cluster
from repro.services import kvstore
from repro.services.authenticated_kv import AuthenticatedKVStore
from repro.services.interface import BlockOperations
from repro.services.kvstore import KVOperation
from repro.services.ledger import LedgerService, ledger_operation
from repro.workloads.ethereum_workload import EthereumWorkload

ACCOUNTS = tuple("0x" + digit * 40 for digit in "abc")


def _kv_store():
    store = AuthenticatedKVStore()
    store.execute(KVOperation.put("genesis", 0))
    return store


def _kv_block():
    return BlockOperations(
        AuthenticatedKVStore.make_put(f"k{i}", f"v{i}", client_id=1, timestamp=i) for i in range(3)
    )


def _ledger():
    ledger = LedgerService()
    for account in ACCOUNTS:
        ledger.fund(account, 1_000)
    return ledger


def _ledger_block():
    return BlockOperations(
        ledger_operation(
            Transaction.transfer(ACCOUNTS[i], ACCOUNTS[i - 1], 10 + i), client_id=1, timestamp=i
        )
        for i in range(3)
    )


SERVICES = {"kv": (_kv_store, _kv_block), "ledger": (_ledger, _ledger_block)}


def _applied_pair(service):
    """Two stores at one state, then one block priced and applied by both:
    they end holding one contents object."""
    make_store, make_block = SERVICES[service]
    first, second = make_store(), make_store()
    block = make_block()
    for store in (first, second):
        store.block_execution_cost(1, block)
        store.execute_block(1, block)
    assert first._store._data is second._store._data
    return first, second


def _observed(store):
    contents = store._store._data
    return (
        dict(contents), list(contents), store._store.contents_digest(),
        store._state_fingerprint, store.digest(),
    )


def _put(store):
    store._store.put("acct/written", 1)


def _delete(store):
    store._store.execute(KVOperation.delete(next(iter(store._store._data))))


def _execute(store):
    if isinstance(store, LedgerService):
        store.execute(ledger_operation(Transaction.transfer(ACCOUNTS[0], ACCOUNTS[1], 5)))
    else:
        store.execute(KVOperation.put("k0", "changed"))


def _restore(store):
    store.restore(store.snapshot())
    store._store._data["after-restore"] = 1  # the restored contents are its own


def _fund(store):
    store.fund(ACCOUNTS[2], 7)


def _apply(store):
    store.apply(Transaction.transfer(ACCOUNTS[1], ACCOUNTS[2], 3))


WRITES = {"put": _put, "delete": _delete, "execute": _execute, "restore": _restore}
LEDGER_WRITES = {"fund": _fund, "apply": _apply}
CASES = [(service, name) for service in SERVICES for name in WRITES]
CASES += [("ledger", name) for name in LEDGER_WRITES]


@pytest.mark.parametrize("service, write", CASES, ids=[f"{s}-{w}" for s, w in CASES])
def test_a_write_to_shared_contents_leaves_the_peer_as_it_was(service, write):
    writer, peer = _applied_pair(service)
    before = _observed(peer)
    shared = peer._store._data
    (WRITES | LEDGER_WRITES)[write](writer)
    assert _observed(peer) == before
    assert peer._store._data is shared
    assert writer._store._data is not shared
    assert dict(writer._store._data) != dict(shared)


@pytest.mark.parametrize("service", SERVICES)
def test_a_private_store_writes_in_place_and_a_shared_one_never_again(service):
    make_store, _ = SERVICES[service]
    store = make_store()
    contents = store._store._data
    _put(store)
    assert store._store._data is contents, "private contents are written in place"
    writer, peer = _applied_pair(service)
    shared = writer._store._data
    _put(peer)
    _put(writer)
    assert writer._store._data is not shared and peer._store._data is not shared
    assert writer._store._data is not peer._store._data


def _decided(cluster):
    return [
        (
            rid,
            replica.service.digest(),
            list(replica.service._store._data.items()),
            [replica.service._journal_results[s] for s in replica.service._block_order],
        )
        for rid, replica in sorted(cluster.replicas.items())
    ]


def _ledger_run(protocol, post_build=None):
    cluster = build_cluster(protocol, f=1, num_clients=2, topology="lan", batch_size=2, seed=3)
    cluster.post_build = post_build
    cluster.run(EthereumWorkload(num_transactions=40, num_accounts=12, num_clients=2, seed=7))
    return cluster


def _kv_run(protocol, post_build=None):
    cluster, result = run_small_cluster(
        protocol, f=1, num_clients=2, requests_per_client=6, seed=11, post_build=post_build
    )
    assert result.run.completed_requests == 12
    return cluster


RUNS = [("kv", "sbft-c0"), ("kv", "pbft"), ("ledger", "sbft-c0")]


@pytest.mark.parametrize("service, protocol", RUNS, ids=[f"{s}-{p}" for s, p in RUNS])
def test_replicas_at_one_state_hold_one_object_and_unshared_each_its_own(service, protocol):
    run = _kv_run if service == "kv" else _ledger_run
    shared = run(protocol)
    assert len({replica.last_executed for replica in shared.replicas.values()}) == 1
    assert shared.replicas[0].last_executed > 0
    assert len({id(replica.service._store._data) for replica in shared.replicas.values()}) == 1

    private = run(protocol, post_build=unshare)
    held = {id(replica.service._store._data) for replica in private.replicas.values()}
    assert len(held) == len(private.replicas)
    assert _decided(private) == _decided(shared)


def _tracked_contents(monkeypatch):
    """Weak references to every contents object built from here on."""
    created = []

    class Tracked(kvstore.Contents):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            created.append(weakref.ref(self))

    monkeypatch.setattr(kvstore, "Contents", Tracked)
    return created


@pytest.mark.parametrize("service", SERVICES)
def test_live_versions_are_bounded_by_the_states_stores_hold(service, monkeypatch):
    """On the fault sweep's ``crash-restart`` plan (replica 3 crashes at 1 s
    and is restored by state transfer after 3 s): whenever sampled, every
    live contents object is some store's own (the cluster's replicas and the
    clients' verifier), and at the end there is one per distinct state a
    store holds.  A state is what a store prices a block from, its
    ``(fingerprint, chain digest)``: the restored replica took its donor's
    fingerprint with the snapshot, so once it applies the blocks its peers
    apply it holds their version again."""
    created = _tracked_contents(monkeypatch)
    cluster, workload, max_sim_time = crash_restart_cluster(service)
    restores = []
    real_restore = kvstore.KVStore.restore

    def restore(store, snapshot):
        real_restore(store, snapshot)
        others = [other._store._data for other in stores if other._store is not store]
        restores.append(not store._shared and all(store._data is not other for other in others))

    monkeypatch.setattr(kvstore.KVStore, "restore", restore)
    stores = []
    samples = {"taken": 0, "during_crash": 0}

    def sample(time, seq, callback, args):
        if seq % 250:
            return
        live = [contents for contents in (ref() for ref in created) if contents is not None]
        held = {id(store._store._data) for store in stores}
        assert {id(contents) for contents in live} <= held, f"an unheld version lives at {time}"
        samples["taken"] += 1
        samples["during_crash"] += cluster.replicas[3].crashed

    def watch(built):
        stores.extend(replica.service for replica in built.replicas.values())
        stores.extend({client.verifier for client in built.clients.values()})
        built.sim._trace = sample

    cluster.post_build = watch
    cluster.run(workload, max_sim_time=max_sim_time)
    assert samples["during_crash"] > 0 and samples["taken"] > samples["during_crash"]

    restored = cluster.replicas[3]
    assert restored.stats["state_transfers"] >= 1
    assert len({replica.service.digest() for replica in cluster.replicas.values()}) == 1
    assert restores and all(restores), "a restored store starts from a private copy"
    peers = [replica.service._store._data for rid, replica in cluster.replicas.items() if rid != 3]
    assert all(contents is peers[0] for contents in peers)
    assert restored.service._store._data is peers[0]

    gc.collect()
    live = {id(contents) for contents in (ref() for ref in created) if contents is not None}
    states = {(store._state_fingerprint, store._chain_digest) for store in stores}
    assert len(live) <= len(states)
