"""Unit and property tests for Merkle trees and proofs."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import merkle
from repro.crypto.hashing import sha256_hex
from repro.crypto.merkle import MerkleProof, MerkleTree, merkle_root
from repro.errors import InvalidProof


def test_empty_tree_has_stable_root():
    assert MerkleTree().root == MerkleTree().root
    assert len(MerkleTree()) == 0


def test_single_leaf_proof():
    tree = MerkleTree(["only"])
    proof = tree.prove(0)
    assert MerkleTree.verify(tree.root, "only", proof)
    assert not MerkleTree.verify(tree.root, "other", proof)


def test_proofs_verify_for_all_leaves():
    values = [f"value-{i}" for i in range(7)]  # odd count exercises duplication
    tree = MerkleTree(values)
    for index, value in enumerate(values):
        proof = tree.prove(index)
        assert MerkleTree.verify(tree.root, value, proof)


def test_proof_fails_for_wrong_value_or_wrong_position():
    values = list(range(8))
    tree = MerkleTree(values)
    proof = tree.prove(3)
    assert not MerkleTree.verify(tree.root, 4, proof)
    other = tree.prove(4)
    assert not MerkleTree.verify(tree.root, 3, other)


def test_root_changes_when_leaf_changes():
    tree = MerkleTree(["a", "b", "c"])
    before = tree.root
    tree.update(1, "B")
    assert tree.root != before


def test_append_and_extend_change_root():
    tree = MerkleTree(["a"])
    first = tree.root
    index = tree.append("b")
    assert index == 1
    second = tree.root
    tree.extend(["c", "d"])
    assert len(tree) == 4
    assert len({first, second, tree.root}) == 3


def test_prove_out_of_range_raises():
    tree = MerkleTree(["a"])
    with pytest.raises(InvalidProof):
        tree.prove(5)
    with pytest.raises(InvalidProof):
        tree.prove(-1)


def test_order_matters():
    assert merkle_root(["a", "b"]) != merkle_root(["b", "a"])


def test_malformed_proof_fails_closed():
    tree = MerkleTree(["a", "b"])
    proof = tree.prove(0)
    broken = MerkleProof(leaf_index=0, leaf_count=2, path=(("not-a-hash", True),))
    assert not MerkleTree.verify(tree.root, "a", broken)
    assert MerkleTree.verify(tree.root, "a", proof)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.text(max_size=10), min_size=1, max_size=40), st.data())
def test_property_every_leaf_proves_and_no_other_value_does(values, data):
    tree = MerkleTree(values)
    index = data.draw(st.integers(min_value=0, max_value=len(values) - 1))
    proof = tree.prove(index)
    assert MerkleTree.verify(tree.root, values[index], proof)
    wrong = values[index] + "!"
    assert not MerkleTree.verify(tree.root, wrong, proof)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(), min_size=1, max_size=30))
def test_property_root_is_deterministic(values):
    assert MerkleTree(values).root == MerkleTree(list(values)).root


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(), min_size=2, max_size=30), st.data())
def test_property_swapping_two_leaves_changes_root(values, data):
    i = data.draw(st.integers(min_value=0, max_value=len(values) - 1))
    j = data.draw(st.integers(min_value=0, max_value=len(values) - 1))
    swapped = list(values)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    if swapped == values:
        assert MerkleTree(values).root == MerkleTree(swapped).root
    else:
        assert MerkleTree(values).root != MerkleTree(swapped).root


# ----------------------------------------------------------------------
# Proof provenance: ``MerkleTree.prove`` stamps (leaf, root) on the proof and
# ``root_from`` reads the root off the stamp for exactly that leaf.  The stamp
# may only ever save the recomputation, never change a root.
# ----------------------------------------------------------------------
def _reference_root(proof, value):
    """``root_from`` with no stamp: the hash walk, spelled out."""
    current = sha256_hex("merkle-leaf", proof.leaf_index, value)
    for sibling, sibling_is_right in proof.path:
        pair = (current, sibling) if sibling_is_right else (sibling, current)
        current = sha256_hex("merkle-node", *pair)
    return current


@pytest.fixture
def hash_calls(monkeypatch):
    calls = []
    real = merkle.sha256_hex
    monkeypatch.setattr(merkle, "sha256_hex", lambda *parts: calls.append(parts) or real(*parts))
    return calls


def test_proved_leaf_returns_the_root_without_hashing(hash_calls):
    leaves = [(1, position, f"op{position}", f"res{position}") for position in range(5)]
    tree = MerkleTree(leaves)
    proofs = [tree.prove(index) for index in range(5)]
    root = tree.root
    del hash_calls[:]
    for leaf, proof in zip(leaves, proofs):
        assert proof.root_from(leaf) == root
        assert proof.root_from(tuple(leaf)) == root  # an equal leaf, not the same object
        assert MerkleTree.verify(root, leaf, proof)
    assert hash_calls == []


def test_anything_but_the_proved_leaf_is_recomputed(hash_calls):
    leaves = [(1, 0, "op", 7), (1, 1, "op", 8), (1, 2, "op", 9)]
    tree = MerkleTree(leaves)
    proof = tree.prove(1)

    def recomputed(candidate, value):
        del hash_calls[:]
        root = candidate.root_from(value)
        assert len(hash_calls) == 1 + len(candidate.path)
        assert root == _reference_root(candidate, value)
        return root

    # Another value, and an int-vs-float look-alike that Python calls equal.
    assert recomputed(proof, (1, 1, "op", 9)) != tree.root
    assert (1, 1, "op", 8.0) == leaves[1]
    assert recomputed(proof, (1, 1, "op", 8.0)) != tree.root
    # The stamp is not an ``__init__`` field: it survives neither ``replace``
    # nor direct construction, whatever the fields say.
    assert recomputed(dataclasses.replace(proof), leaves[1]) == tree.root
    assert recomputed(dataclasses.replace(proof, path=proof.path[:1]), leaves[1]) != tree.root
    assert recomputed(dataclasses.replace(proof, leaf_index=0), leaves[1]) != tree.root
    rebuilt = MerkleProof(proof.leaf_index, proof.leaf_count, proof.path)
    assert rebuilt == proof and rebuilt._proved is None
    assert recomputed(rebuilt, leaves[1]) == tree.root


def test_unhashable_leaf_gets_no_stamp_to_match(hash_calls):
    """A list compares by plain ``==`` (``[1] == [1.0]``), so such a leaf is
    never matched against a stamp: every check recomputes."""
    tree = MerkleTree([[1, 2], [3, 4]])
    proof = tree.prove(0)
    del hash_calls[:]
    assert proof.root_from([1, 2]) == tree.root
    assert len(hash_calls) == 2
    assert proof.root_from([1.0, 2]) == _reference_root(proof, [1.0, 2]) != tree.root


_LEAVES = st.one_of(
    st.integers(-3, 3),
    st.floats(-3, 3, allow_nan=False).map(lambda x: float(round(x))),
    st.booleans(),
    st.text(max_size=3),
    st.tuples(st.integers(0, 2), st.one_of(st.integers(0, 2), st.just(1.0), st.text(max_size=2))),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(_LEAVES, min_size=1, max_size=12), st.data())
def test_property_root_from_agrees_with_and_without_the_stamp(values, data):
    tree = MerkleTree(values)
    index = data.draw(st.integers(0, len(values) - 1))
    proof = tree.prove(index)
    unstamped = dataclasses.replace(proof)
    assert proof._proved is not None and unstamped._proved is None
    assert proof.root_from(values[index]) == tree.root
    # The proved value, its neighbours and look-alikes (1 / 1.0 / True).
    for value in [values[index], data.draw(_LEAVES), *values]:
        expected = _reference_root(proof, value)
        assert proof.root_from(value) == unstamped.root_from(value) == expected
        assert MerkleTree.verify(tree.root, value, proof) == (expected == tree.root)
