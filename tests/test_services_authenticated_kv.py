"""Unit and property tests for the Merkle-authenticated KV store."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InvalidProof
from repro.services.authenticated_kv import AuthenticatedKVStore, GENESIS_DIGEST
from repro.services.interface import OperationResult


def _block(store, sequence, items):
    ops = [AuthenticatedKVStore.make_put(k, v) for k, v in items]
    results = store.execute_block(sequence, ops)
    return ops, results


def test_genesis_digest_before_any_block():
    store = AuthenticatedKVStore()
    assert store.digest() == GENESIS_DIGEST
    assert store.executed_blocks == 0


def test_execute_block_changes_digest_and_state():
    store = AuthenticatedKVStore()
    _block(store, 1, [("a", 1), ("b", 2)])
    assert store.get("a") == 1
    assert store.get("b") == 2
    assert store.digest() != GENESIS_DIGEST
    assert store.executed_blocks == 1


def test_digests_are_deterministic_across_replicas():
    store_a = AuthenticatedKVStore()
    store_b = AuthenticatedKVStore()
    for store in (store_a, store_b):
        _block(store, 1, [("x", "1"), ("y", "2")])
        _block(store, 2, [("x", "3")])
    assert store_a.digest() == store_b.digest()
    assert store_a.digest_at(1) == store_b.digest_at(1)


def test_digest_depends_on_execution_order():
    store_a = AuthenticatedKVStore()
    store_b = AuthenticatedKVStore()
    _block(store_a, 1, [("x", 1), ("y", 2)])
    _block(store_b, 1, [("y", 2), ("x", 1)])
    assert store_a.digest() != store_b.digest()


def test_prove_and_verify_roundtrip():
    store = AuthenticatedKVStore()
    ops, results = _block(store, 1, [("a", 1), ("b", 2), ("c", 3)])
    for position, op in enumerate(ops):
        proof = store.prove(1, position)
        assert store.verify(store.digest_at(1), op, results[position].value, 1, position, proof)


def test_proof_remains_valid_after_later_blocks():
    """The execute-ack property: proofs are anchored to d_s, not the tip."""
    store = AuthenticatedKVStore()
    ops, results = _block(store, 1, [("a", 1)])
    _block(store, 2, [("b", 2)])
    _block(store, 3, [("c", 3)])
    proof = store.prove(1, 0)
    assert store.verify(store.digest_at(1), ops[0], results[0].value, 1, 0, proof)
    # ... but it does not verify against the tip digest.
    assert not store.verify(store.digest(), ops[0], results[0].value, 1, 0, proof)


def test_verify_rejects_wrong_value_operation_or_position():
    store = AuthenticatedKVStore()
    ops, results = _block(store, 1, [("a", 1), ("b", 2)])
    proof = store.prove(1, 0)
    digest = store.digest_at(1)
    assert not store.verify(digest, ops[0], "wrong-value", 1, 0, proof)
    assert not store.verify(digest, ops[1], results[0].value, 1, 0, proof)
    assert not store.verify(digest, ops[0], results[0].value, 1, 1, proof)
    assert not store.verify(digest, ops[0], results[0].value, 2, 0, proof)


def test_verify_rejects_a_stamped_proof_around_another_entry():
    """The Merkle path carries its prover's (leaf, root) stamp; wrapping it
    around any other entry, or presenting it for another block, must still
    fail exactly as a recomputed walk does."""
    store = AuthenticatedKVStore()
    ops = [AuthenticatedKVStore.make_put("a", "v"), AuthenticatedKVStore.make_get("a")]
    results = store.execute_block(1, ops)
    later_ops, later_results = ops, store.execute_block(2, ops)
    assert [result.value for result in results] == [True, "v"]
    proof = store.prove(1, 0)
    other = store.prove(1, 1)
    assert proof.proof.entry_proof._proved is not None
    digest = store.digest_at(1)
    assert store.verify(digest, ops[0], results[0].value, 1, 0, proof)

    def rewrap(**changes):
        return type(proof)(1, 0, digest, dataclasses.replace(proof.proof, **changes))

    # Position 1's entry (which really is in the block) around position 0's path.
    swapped = type(proof)(1, 1, digest, dataclasses.replace(proof.proof, entry=other.proof.entry))
    assert not store.verify(digest, ops[1], results[1].value, 1, 1, swapped)
    # An entry claiming another result digest, with the value it claims.
    lying = dataclasses.replace(proof.proof.entry, result_digest=other.proof.entry.result_digest)
    assert not store.verify(digest, ops[0], results[1].value, 1, 0, rewrap(entry=lying))
    # The same operations executed as block 2: its proof is no proof for block 1.
    later = store.prove(2, 0)
    assert store.verify(store.digest_at(2), later_ops[0], later_results[0].value, 2, 0, later)
    assert not store.verify(digest, ops[0], results[0].value, 1, 0, later)
    assert not store.verify(store.digest_at(2), ops[0], results[0].value, 1, 0, later)
    # Block 2's path under block 1's entry, and a wrong chain predecessor.
    assert not store.verify(
        digest, ops[0], results[0].value, 1, 0, rewrap(entry_proof=later.proof.entry_proof)
    )
    assert not store.verify(digest, ops[0], results[0].value, 1, 0, rewrap(prev_digest=digest))


def test_verify_rejects_foreign_proof_type():
    store = AuthenticatedKVStore()
    ops, results = _block(store, 1, [("a", 1)])
    proof = store.prove(1, 0)
    hacked = type(proof)(sequence=1, position=0, digest=proof.digest, proof="not-a-proof")
    assert not store.verify(store.digest_at(1), ops[0], results[0].value, 1, 0, hacked)


def test_prove_unknown_block_or_position_raises():
    store = AuthenticatedKVStore()
    _block(store, 1, [("a", 1)])
    with pytest.raises(InvalidProof):
        store.prove(9, 0)
    with pytest.raises(InvalidProof):
        store.prove(1, 5)
    with pytest.raises(InvalidProof):
        store.digest_at(9)


def test_result_for_returns_recorded_results():
    store = AuthenticatedKVStore()
    ops, results = _block(store, 1, [("a", 1), ("b", 2)])
    assert store.result_for(1, 1).value == results[1].value


def test_snapshot_restore_preserves_digest_chain_and_proofs():
    store = AuthenticatedKVStore()
    ops, results = _block(store, 1, [("a", 1)])
    _block(store, 2, [("b", 2)])
    snapshot = store.snapshot()

    fresh = AuthenticatedKVStore()
    fresh.restore(snapshot)
    assert fresh.digest() == store.digest()
    assert fresh.get("a") == 1
    proof = fresh.prove(1, 0)
    assert fresh.verify(fresh.digest_at(1), ops[0], results[0].value, 1, 0, proof)


def test_journal_block_with_external_results():
    """Services like the ledger execute elsewhere and journal afterwards."""
    store = AuthenticatedKVStore()
    op = AuthenticatedKVStore.make_put("k", "v")
    result = OperationResult(value="external")
    store.journal_block(5, [op], [result])
    proof = store.prove(5, 0)
    assert store.verify(store.digest_at(5), op, "external", 5, 0, proof)


def test_replay_block_reproduces_a_journaled_block_exactly():
    """The record ``journal_block`` returns is all a peer needs: replaying it
    gives the same digest chain and proofs with no hashing of its own."""
    first, peer = AuthenticatedKVStore(), AuthenticatedKVStore()
    op = AuthenticatedKVStore.make_put("k", "v")
    results = [OperationResult(value={"success": True, "gas_used": 21000})]
    record = first.journal_block(5, [op], results)
    peer.replay_block(5, results, *record)
    assert peer.digest() == first.digest() == record[1]
    assert peer.prove(5, 0) == first.prove(5, 0)
    assert peer.executed_blocks == 1


def test_block_operation_digests_ride_on_the_shared_plan_tuple():
    from repro.services.authenticated_kv import block_operation_digests, operation_digest
    from repro.services.interface import BlockOperations

    ops = [AuthenticatedKVStore.make_put(f"k{i}", i) for i in range(3)]
    expected = tuple(operation_digest(op) for op in ops)
    shared = BlockOperations(ops)
    assert shared == tuple(ops) and shared.digests is None
    assert block_operation_digests(shared) == expected
    # Computed once: the peers get the very tuple the first replica built.
    assert block_operation_digests(shared) is shared.digests
    # Any other sequence is digested on the spot and left alone.
    assert block_operation_digests(ops) == expected
    assert block_operation_digests(tuple(ops)) == expected


def test_equal_dict_results_share_one_result_hash(monkeypatch):
    """Ledger receipts are dicts, rebuilt per transaction: value-equal ones
    hit the store's keyed memo instead of being hashed again, type-exactly;
    the memo is the store's own, so another store starts cold."""
    from repro.services import authenticated_kv

    hashed = []
    real_hash = authenticated_kv.sha256_hex

    def counting_hash(*parts):
        hashed.append(parts)
        return real_hash(*parts)

    monkeypatch.setattr(authenticated_kv, "sha256_hex", counting_hash)
    receipt = {"success": True, "gas_used": 41_317, "contract_address": None, "probe": "dict-memo"}
    store = AuthenticatedKVStore()
    digests = [store._result_digest(dict(receipt)) for _ in range(4)]
    reordered = dict(reversed(list(receipt.items())))
    digests.append(store._result_digest(reordered))
    assert len(set(digests)) == 1 and digests[0] == real_hash("result", receipt)
    assert len(hashed) == 1
    # 41317 and 41317.0 are equal to Python and distinct to the encoding.
    as_float = store._result_digest(dict(receipt, gas_used=41_317.0))
    assert as_float == real_hash("result", dict(receipt, gas_used=41_317.0)) != digests[0]
    assert len(hashed) == 2
    # An unhashable part (a list) is hashed every time, never memoized.
    unhashable = [store._result_digest([1, 2]) for _ in range(2)]
    assert unhashable == [real_hash("result", [1, 2])] * 2
    assert len(hashed) == 4
    assert AuthenticatedKVStore()._result_digest(receipt) == digests[0]
    assert len(hashed) == 5


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.lists(st.tuples(st.text(min_size=1, max_size=5), st.integers()), min_size=1, max_size=5),
        min_size=1,
        max_size=5,
    ),
    st.data(),
)
def test_property_any_executed_operation_is_provable(blocks, data):
    store = AuthenticatedKVStore()
    all_blocks = []
    for sequence, items in enumerate(blocks, start=1):
        ops, results = _block(store, sequence, items)
        all_blocks.append((sequence, ops, results))
    sequence, ops, results = data.draw(st.sampled_from(all_blocks))
    position = data.draw(st.integers(min_value=0, max_value=len(ops) - 1))
    proof = store.prove(sequence, position)
    assert store.verify(
        store.digest_at(sequence), ops[position], results[position].value, sequence, position, proof
    )
