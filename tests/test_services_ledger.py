"""Unit tests for the smart-contract ledger service."""

import pytest

from repro.evm.contracts import counter_contract, encode_call
from repro.evm.transactions import Transaction
from repro.services.interface import Operation
from repro.services.ledger import LedgerService, ledger_operation

ALICE = "0x" + "aa" * 20
BOB = "0x" + "bb" * 20


@pytest.fixture
def ledger():
    service = LedgerService()
    service.fund(ALICE, 1_000_000)
    service.fund(BOB, 1_000_000)
    return service


def test_execute_transfer_operation(ledger):
    result = ledger.execute(ledger_operation(Transaction.transfer(ALICE, BOB, 100)))
    assert result.ok
    assert ledger._world.get_balance(BOB) == 1_000_100


def test_execute_rejects_non_transaction_payload(ledger):
    result = ledger.execute(Operation(kind="ledger", payload="junk"))
    assert not result.ok


def test_balance_and_storage_queries(ledger):
    receipt = ledger.apply(Transaction.create(ALICE, counter_contract()))
    ledger.apply(Transaction.call(ALICE, receipt.contract_address, encode_call(0)))
    balance = ledger.query(Operation(kind="query", payload={"query": "balance", "address": ALICE}))
    assert balance.value == 1_000_000
    storage = ledger.query(
        Operation(kind="query", payload={"query": "storage", "address": receipt.contract_address, "slot": 0})
    )
    assert storage.value == 1
    unknown = ledger.query(Operation(kind="query", payload={"query": "nonsense"}))
    assert not unknown.ok


def test_execute_block_journals_and_proves(ledger):
    ops = [
        ledger_operation(Transaction.transfer(ALICE, BOB, 10)),
        ledger_operation(Transaction.transfer(BOB, ALICE, 5)),
    ]
    results = ledger.execute_block(1, ops)
    assert all(r.ok for r in results)
    digest = ledger.digest()
    proof = ledger.prove(1, 0)
    assert ledger.verify(digest, ops[0], results[0].value, 1, 0, proof)
    assert not ledger.verify(digest, ops[0], {"tampered": True}, 1, 0, proof)


def test_digest_identical_across_replicas():
    def build():
        service = LedgerService()
        service.fund(ALICE, 10**6)
        service.fund(BOB, 10**6)
        service.execute_block(1, [ledger_operation(Transaction.transfer(ALICE, BOB, 42))])
        return service

    assert build().digest() == build().digest()


def test_execution_cost_scales_with_gas_and_size(ledger):
    cheap = ledger_operation(Transaction.transfer(ALICE, BOB, 1))
    heavy = ledger_operation(Transaction.call(ALICE, BOB, data=b"x" * 4000, gas_limit=500_000))
    assert ledger.execution_cost(heavy) > ledger.execution_cost(cheap)
    assert ledger.execution_cost(Operation(kind="ledger", payload=None)) > 0


def test_snapshot_restore_roundtrip(ledger):
    ledger.execute_block(1, [ledger_operation(Transaction.transfer(ALICE, BOB, 77))])
    snapshot = ledger.snapshot()

    other = LedgerService()
    other.restore(snapshot)
    assert other.digest() == ledger.digest()
    assert other._world.get_balance(BOB) == ledger._world.get_balance(BOB)


def test_failed_transaction_reported_not_raised(ledger):
    result = ledger.execute(ledger_operation(Transaction.transfer(ALICE, BOB, 10**12)))
    assert not result.ok
    assert result.value["success"] is False


def test_receipts_recorded(ledger):
    ledger.apply(Transaction.transfer(ALICE, BOB, 1))
    ledger.apply(Transaction.create(ALICE, counter_contract()))
    assert len(ledger.receipts) == 2
    assert ledger.receipts[1].contract_address is not None


# ----------------------------------------------------------------------
# Execute once, replay n-1 times: the entry on the shared block
# ----------------------------------------------------------------------

from helpers import execute_everywhere  # noqa: E402 - grouped with its tests
from repro.core import execution_cache  # noqa: E402
from repro.services.interface import BlockOperations  # noqa: E402


@pytest.fixture
def cold_cache():
    """Zeroed hit/miss counters (``Cluster._build`` does this for a run)."""
    execution_cache.clear()


def _funded_ledger():
    service = LedgerService()
    service.fund(ALICE, 1_000_000)
    service.fund(BOB, 1_000_000)
    return service


def _block(timestamp=0):
    """The one ``BlockOperations`` every replica of a cluster is handed."""
    return BlockOperations([
        ledger_operation(Transaction.transfer(ALICE, BOB, 100), timestamp=timestamp),
        ledger_operation(Transaction.create(ALICE, counter_contract()), timestamp=timestamp + 1),
    ])


def test_peer_replica_replays_from_cache(cold_cache):
    first, peer = _funded_ledger(), _funded_ledger()
    operations = _block()
    results_first = first.execute_block(1, operations)
    assert execution_cache.stats()["misses"] == 1
    results_peer = peer.execute_block(1, operations)
    stats = execution_cache.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1

    assert results_peer == results_first
    assert peer.digest() == first.digest()
    assert peer.receipts == first.receipts
    assert peer._world.get_balance(BOB) == first._world.get_balance(BOB)
    # Proofs over the replayed journal verify exactly like the original's.
    proof = peer.prove(1, 0)
    assert peer.verify(peer.digest(), operations[0], results_peer[0].value, 1, 0, proof)


def test_cache_off_produces_identical_state(cold_cache, monkeypatch):
    operations = _block()
    cached_a, cached_b = _funded_ledger(), _funded_ledger()
    cached_a.execute_block(1, operations)
    cached_b.execute_block(1, operations)
    assert execution_cache.stats() == {"hits": 1, "misses": 1}

    execute_everywhere(monkeypatch)
    plain = _funded_ledger()
    plain.execute_block(1, operations)

    assert plain.digest() == cached_a.digest() == cached_b.digest()
    assert plain.receipts == cached_a.receipts == cached_b.receipts


def test_plain_list_is_executed_by_every_ledger(cold_cache):
    operations = list(_block())
    first, second = _funded_ledger(), _funded_ledger()
    assert second.execute_block(1, operations) == first.execute_block(1, operations)
    assert execution_cache.stats() == {"hits": 0, "misses": 2}
    assert second.digest() == first.digest() and second.receipts == first.receipts


def test_direct_mutation_prevents_stale_cache_hit(cold_cache):
    operations = BlockOperations([ledger_operation(Transaction.transfer(ALICE, BOB, 999_999))])
    first = _funded_ledger()
    assert first.execute_block(1, operations)[0].ok
    assert operations.replay is not None

    # Same genesis, but a direct (unjournaled) apply drains ALICE before the
    # block: a stale cache hit would wrongly report the transfer succeeding.
    diverged = _funded_ledger()
    diverged.apply(Transaction.transfer(ALICE, BOB, 999_500))
    result = diverged.execute_block(1, operations)[0]
    assert not result.ok
    assert "insufficient balance" in result.error


def test_restore_invalidates_fingerprint(cold_cache):
    first = _funded_ledger()
    first.execute_block(1, _block())
    snapshot = first.snapshot()

    other = LedgerService()
    other.restore(snapshot)
    # The restored ledger executes the next block correctly (fresh fingerprint,
    # no stale reuse) and stays digest-identical with the original.
    operations = BlockOperations(
        [ledger_operation(Transaction.transfer(BOB, ALICE, 5), timestamp=7)]
    )
    misses = execution_cache.stats()["misses"]
    assert first.execute_block(2, operations) == other.execute_block(2, operations)
    assert execution_cache.stats() == {"hits": 0, "misses": misses + 2}
    assert other.digest() == first.digest()


def test_execution_cost_is_cache_independent(cold_cache):
    operation = ledger_operation(Transaction.transfer(ALICE, BOB, 1))
    first, peer = _funded_ledger(), _funded_ledger()
    cost_before = first.execution_cost(operation)
    block = BlockOperations([operation])
    first.execute_block(1, block)
    peer.execute_block(1, block)
    assert execution_cache.stats()["hits"] == 1  # replayed
    assert peer.execution_cost(operation) == cost_before == first.execution_cost(operation)


def test_world_state_reads_and_writes_the_restored_store(cold_cache):
    """The world state's backend holds the store's contents dict; a restore
    refills that dict, so reads, first executions and replays after it all
    see the restored state."""
    first = _funded_ledger()
    first.execute_block(1, _block())
    snapshot = first.snapshot()
    restored = []
    for _ in range(2):
        ledger = _funded_ledger()
        ledger.apply(Transaction.transfer(ALICE, BOB, 500))  # diverged, then restored
        ledger.restore(snapshot)
        assert ledger._world.get_balance(BOB) == first._world.get_balance(BOB)
        restored.append(ledger)
    operations = BlockOperations([ledger_operation(Transaction.transfer(BOB, ALICE, 5), timestamp=7)])
    first.execute_block(2, list(operations))
    misses = execution_cache.stats()["misses"]
    # The two restored ledgers share a fingerprint: one executes, one replays.
    for ledger in restored:
        ledger.execute_block(2, operations)
    assert execution_cache.stats() == {"hits": 1, "misses": misses + 1}
    for ledger in restored:
        assert ledger.digest() == first.digest()
        assert ledger.snapshot()["authkv"]["data"] == first.snapshot()["authkv"]["data"]
        assert ledger._world.get_balance(ALICE) == first._world.get_balance(ALICE)
