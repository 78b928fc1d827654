"""Unit and property tests for the Merkle-authenticated KV store."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InvalidProof
from repro.services.authenticated_kv import AuthenticatedKVStore, GENESIS_DIGEST, chain_step
from repro.services.interface import OperationResult


def _block(store, sequence, items):
    ops = [AuthenticatedKVStore.make_put(k, v) for k, v in items]
    results = store.execute_block(sequence, ops)
    return ops, results


def test_genesis_digest_before_any_block():
    store = AuthenticatedKVStore()
    assert store.digest() == GENESIS_DIGEST
    assert len(store._block_order) == 0


def test_execute_block_changes_digest_and_state():
    store = AuthenticatedKVStore()
    _block(store, 1, [("a", 1), ("b", 2)])
    assert store.store.data["a"] == 1
    assert store.store.data["b"] == 2
    assert store.digest() != GENESIS_DIGEST
    assert len(store._block_order) == 1


def test_digests_are_deterministic_across_replicas():
    store_a = AuthenticatedKVStore()
    store_b = AuthenticatedKVStore()
    for store in (store_a, store_b):
        _block(store, 1, [("x", "1"), ("y", "2")])
        _block(store, 2, [("x", "3")])
    assert store_a.digest() == store_b.digest()
    assert store_a._digest_at[1] == store_b._digest_at[1]


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
        assert store.verify(store._digest_at[1], op, results[position].value, 1, position, proof)


def test_proof_remains_valid_after_later_blocks():
    """The execute-ack property: proofs are anchored to d_s, not the tip."""
    store = AuthenticatedKVStore()
    ops, results = _block(store, 1, [("a", 1)])
    _block(store, 2, [("b", 2)])
    _block(store, 3, [("c", 3)])
    proof = store.prove(1, 0)
    assert store.verify(store._digest_at[1], ops[0], results[0].value, 1, 0, proof)
    # ... but it does not verify against the tip digest.
    assert not store.verify(store.digest(), ops[0], results[0].value, 1, 0, proof)


def test_verify_rejects_wrong_value_operation_or_position():
    store = AuthenticatedKVStore()
    ops, results = _block(store, 1, [("a", 1), ("b", 2)])
    proof = store.prove(1, 0)
    digest = store._digest_at[1]
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
    digest = store._digest_at[1]
    assert store.verify(digest, ops[0], results[0].value, 1, 0, proof)

    def rewrap(**changes):
        return type(proof)(1, 0, digest, dataclasses.replace(proof.proof, **changes))

    # Position 1's entry (which really is in the block) around position 0's path.
    swapped = type(proof)(1, 1, digest, dataclasses.replace(proof.proof, entry=other.proof.entry))
    assert not store.verify(digest, ops[1], results[1].value, 1, 1, swapped)
    # An entry claiming another result digest, with the value it claims.
    lying = (*proof.proof.entry[:3], other.proof.entry[3])
    assert not store.verify(digest, ops[0], results[1].value, 1, 0, rewrap(entry=lying))
    # The same operations executed as block 2: its proof is no proof for block 1.
    later = store.prove(2, 0)
    assert store.verify(store._digest_at[2], later_ops[0], later_results[0].value, 2, 0, later)
    assert not store.verify(digest, ops[0], results[0].value, 1, 0, later)
    assert not store.verify(store._digest_at[2], ops[0], results[0].value, 1, 0, later)
    # Block 2's path under block 1's entry, and a wrong chain predecessor.
    assert not store.verify(
        digest, ops[0], results[0].value, 1, 0, rewrap(entry_proof=later.proof.entry_proof)
    )
    assert not store.verify(digest, ops[0], results[0].value, 1, 0, rewrap(prev_digest=digest))


@pytest.fixture
def hash_passes(monkeypatch):
    """Every SHA-256 pass from here on: the canonical encoder's (under
    ``sha256_hex``) and the Merkle tree's pre-encoded ones."""
    from repro.crypto import hashing, merkle

    passes = []
    real_bytes, real_sha256 = hashing._canonical_bytes, merkle.sha256
    monkeypatch.setattr(hashing, "_canonical_bytes", lambda parts: passes.append(parts[0])
                        or real_bytes(parts))
    monkeypatch.setattr(merkle, "sha256", lambda data: passes.append("merkle") or real_sha256(data))
    return passes


def test_a_stamped_honest_proof_verifies_without_hashing(hash_passes):
    """``prove`` stamps the chain step the store already took; its journal
    leaf is the tree's own tuple and its path carries the (leaf, root) stamp,
    so the client's check hashes nothing (the operation digest rides on the
    operation, the result digest is memoized)."""
    store = AuthenticatedKVStore()
    ops, results = _block(store, 1, [("a", 1), ("b", 2), ("c", 3)])
    proof = store.prove(1, 2)
    assert proof.proof.entry is store._journal_trees[1].leaves[2]
    assert proof.proof._chained == (GENESIS_DIGEST, 1, store._journal_trees[1].root, proof.digest)
    assert proof.size_bytes == 48 + 96 + proof.proof.entry_proof.size_bytes
    del hash_passes[:]
    assert store.verify(store._digest_at[1], ops[2], results[2].value, 1, 2, proof)
    assert hash_passes == []


@pytest.mark.parametrize("case", [
    "replace-prev-digest", "replace-entry", "replace-path", "set-prev-digest", "set-entry",
    "set-path", "other-store", "other-sequence", "float-sequence",
])
def test_a_proof_without_a_matching_stamp_is_recomputed(case, hash_passes):
    """Whatever the stamp does not vouch for exactly takes the recompute path
    and is decided exactly as a proof with no stamp at all (``replace`` drops
    both stamps): a ``replace`` of the chain predecessor or the entry, a path
    cut for another leaf, the same tampering written over a stamped proof,
    another store's proof, another sequence."""
    store, other_store = AuthenticatedKVStore(), AuthenticatedKVStore()
    ops = [AuthenticatedKVStore.make_put("a", "v"), AuthenticatedKVStore.make_get("a")]
    results = store.execute_block(1, ops)
    _block(other_store, 0, [("z", 1)])  # another history, then the same block
    other_store.execute_block(1, ops)
    digest = store._digest_at[1]
    proof = store.prove(1, 0)
    kv_proof, sibling = proof.proof, store.prove(1, 1).proof
    lying_entry = (*kv_proof.entry[:3], sibling.entry[3])
    value, sequence = results[0].value, 1
    if case == "replace-prev-digest":
        kv_proof = dataclasses.replace(kv_proof, prev_digest=digest)
    elif case == "replace-entry":
        kv_proof, value = dataclasses.replace(kv_proof, entry=lying_entry), results[1].value
    elif case == "replace-path":
        kv_proof = dataclasses.replace(kv_proof, entry_proof=sibling.entry_proof)
    elif case == "set-prev-digest":  # written over the stamped proof itself
        object.__setattr__(kv_proof, "prev_digest", digest)
    elif case == "set-entry":
        object.__setattr__(kv_proof, "entry", lying_entry)
        value = results[1].value
    elif case == "set-path":
        object.__setattr__(kv_proof, "entry_proof", sibling.entry_proof)
    elif case == "other-store":  # the same entry under another history, stamps intact
        kv_proof = other_store.prove(1, 0).proof
    else:
        sequence = 2 if case == "other-sequence" else 1.0
    stamped = type(proof)(1, 0, digest, kv_proof)
    unstamped = type(proof)(1, 0, digest, dataclasses.replace(
        kv_proof, entry_proof=dataclasses.replace(kv_proof.entry_proof)))
    del hash_passes[:]
    verdict = store.verify(digest, ops[0], value, sequence, 0, stamped)
    assert verdict is store.verify(digest, ops[0], value, sequence, 0, unstamped) is False
    chain_steps = hash_passes.count("authkv-chain")
    # Another store's stamp vouches for its own chain step: read, not redone.
    assert chain_steps == {"other-store": 1, "other-sequence": 0}.get(case, 2)


def test_verify_rejects_foreign_proof_type():
    store = AuthenticatedKVStore()
    ops, results = _block(store, 1, [("a", 1)])
    proof = store.prove(1, 0)
    hacked = type(proof)(sequence=1, position=0, digest=proof.digest, proof="not-a-proof")
    assert not store.verify(store._digest_at[1], ops[0], results[0].value, 1, 0, hacked)


def test_prove_unknown_block_or_position_raises():
    store = AuthenticatedKVStore()
    _block(store, 1, [("a", 1)])
    with pytest.raises(InvalidProof):
        store.prove(9, 0)
    with pytest.raises(InvalidProof):
        store.prove(1, 5)


def test_chain_digest_includes_previous_hash():
    first = chain_step(GENESIS_DIGEST, 1, "root")
    second = chain_step(first, 1, "root")
    assert first != second
    assert chain_step(GENESIS_DIGEST, 1, "root") == first
    assert first != chain_step(GENESIS_DIGEST, 2, "root")
    assert first != chain_step(GENESIS_DIGEST, 1, "other-root")


def test_result_for_returns_recorded_results():
    store = AuthenticatedKVStore()
    ops, results = _block(store, 1, [("a", 1), ("b", 2)])
    assert store._journal_results[1][1].value == results[1].value
    assert [r.value for r in store._journal_results[1]] == [r.value for r in results]


def test_snapshot_restore_preserves_digest_chain_and_proofs():
    store = AuthenticatedKVStore()
    ops, results = _block(store, 1, [("a", 1)])
    _block(store, 2, [("b", 2)])
    snapshot = store.snapshot()

    fresh = AuthenticatedKVStore()
    fresh.restore(snapshot)
    assert fresh.digest() == store.digest()
    assert fresh.store.data["a"] == 1
    proof = fresh.prove(1, 0)
    assert fresh.verify(fresh._digest_at[1], ops[0], results[0].value, 1, 0, proof)


def test_journal_block_with_external_results():
    """Services like the ledger execute elsewhere and journal afterwards."""
    store = AuthenticatedKVStore()
    op = AuthenticatedKVStore.make_put("k", "v")
    result = OperationResult(value="external")
    store.journal_block(5, [op], [result])
    proof = store.prove(5, 0)
    assert store.verify(store._digest_at[5], op, "external", 5, 0, proof)


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
    assert len(peer._block_order) == 1


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


def test_operation_digests_of_fixed_kv_operations_are_pinned():
    """An operation digest hashes ``KVOperation``'s repr (the canonical
    encoding of a payload that is no builtin): these constants were computed
    with the stock dataclass repr, so a drift of the explicit one fails here
    by name, not only through a golden."""
    from repro.services.authenticated_kv import operation_digest
    from repro.services.interface import Operation
    from repro.services.kvstore import KVOperation

    put = Operation(kind="kv", payload=KVOperation("put", "k7", "v7"), client_id=3, timestamp=9)
    get = Operation(kind="kv", payload=KVOperation("get", "k7"), client_id=3, timestamp=10,
                    read_only=True)
    delete = Operation(kind="kv", payload=KVOperation("delete", "k7"), client_id=3, timestamp=11)
    assert repr(put.payload) == "KVOperation(action='put', key='k7', value='v7')"
    assert [operation_digest(op) for op in (put, get, delete)] == [
        "e9ac66670ea14ad23626733244f44e891af93c27eb46b53bbd8df0fa60f83e32",
        "89bcf425dfd2e351f680dc11a088c96230c8e37e953aa939c73e2e0a645a8cc0",
        "1203cfdeeb546926f4521eb55779ec245360be1688b0c22e203e74b19410eaf7",
    ]


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
        store._digest_at[sequence], ops[position], results[position].value, sequence, position, proof
    )
