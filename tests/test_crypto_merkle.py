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
    assert MerkleTree(["a", "b", "c"]).root != MerkleTree(["a", "B", "c"]).root


def test_more_leaves_change_the_root():
    roots = {MerkleTree(["a", "b", "c", "d"][:count]).root for count in (1, 2, 4)}
    assert len(roots) == 3 and len(MerkleTree(["a", "b", "c", "d"])) == 4


def test_tree_keeps_its_leaf_tuple():
    leaves = ((1, 0, "op", "res"), (1, 1, "op", "res"))
    tree = MerkleTree(leaves)
    assert tree.leaves is leaves
    assert MerkleTree(list(leaves)).leaves == leaves


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


def test_a_path_that_is_not_iterable_is_no_proof():
    tree = MerkleTree(["a", "b"])
    broken = MerkleProof(leaf_index=0, leaf_count=2, path=())
    object.__setattr__(broken, "path", None)
    with pytest.raises(TypeError):
        broken.root_from("a")
    assert not MerkleTree.verify(tree.root, "a", broken)


@pytest.mark.parametrize("entry", [(), ("x",), ("x", True, "extra")], ids=["0", "1", "3"])
def test_a_path_entry_of_the_wrong_length_is_no_proof(entry):
    tree = MerkleTree(["a", "b"])
    broken = MerkleProof(leaf_index=0, leaf_count=2, path=(entry,))
    with pytest.raises(ValueError):
        broken.root_from("a")
    assert not MerkleTree.verify(tree.root, "a", broken)


def test_verify_lets_any_other_error_through(monkeypatch):
    """Only a malformed path reads as "invalid proof": a bug in the hashing
    code must fail loudly."""
    tree = MerkleTree(["a", "b"])
    proof = dataclasses.replace(tree.prove(0))  # no stamp: the path is walked

    def broken(*_args):
        raise KeyError("bug")

    monkeypatch.setattr(merkle, "_node_hash", broken)
    with pytest.raises(KeyError):
        MerkleTree.verify(tree.root, "a", proof)


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
    """Every SHA-256 pass the Merkle code makes: through ``sha256_hex`` (the
    canonical encoder) and over pre-encoded bytes (``merkle.sha256``)."""
    calls = []
    real_hex, real_sha256 = merkle.sha256_hex, merkle.sha256
    monkeypatch.setattr(merkle, "sha256_hex", lambda *parts: calls.append(parts) or real_hex(*parts))
    monkeypatch.setattr(merkle, "sha256", lambda data: calls.append(data) or real_sha256(data))
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


# ----------------------------------------------------------------------
# Differential: the level hashing (pre-encoded nodes and journal leaves)
# against the sha256_hex loop it replaced.  The roots and paths are the
# contract; the loop is kept here, verbatim, as the reference.
# ----------------------------------------------------------------------
_EMPTY_ROOT = sha256_hex("merkle-empty")


def _leaf_hash(index, value):
    return sha256_hex("merkle-leaf", index, value)


def _node_hash(left, right):
    return sha256_hex("merkle-node", left, right)


def _build(values):
    if not values:
        return [[_EMPTY_ROOT]]
    level = [_leaf_hash(i, v) for i, v in enumerate(values)]
    levels = [level]
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level), 2):
            left = level[i]
            right = level[i + 1] if i + 1 < len(level) else level[i]
            nxt.append(_node_hash(left, right))
        level = nxt
        levels.append(level)
    return levels


def _reference_path(levels, index):
    path = []
    position = index
    for level in levels[:-1]:
        sibling_index = position ^ 1
        if sibling_index >= len(level):
            sibling_index = position
        sibling_is_right = sibling_index > position or sibling_index == position
        path.append((level[sibling_index], bool(sibling_is_right)))
        position //= 2
    return tuple(path)


_HEX = st.text("0123456789abcdef", min_size=64, max_size=64)
#: Strings a journal digest slot may hold: hex digests and near misses.
_DIGESTS = st.one_of(
    _HEX,
    _HEX,
    st.sampled_from(["a" * 63, "a" * 65, "é" * 64, "\x80" + "a" * 63, "ab" * 32 + "é", ""]),
    st.text(min_size=62, max_size=66),
)
#: What a journal int slot may hold: table ints and near misses.
_INTS = st.one_of(
    st.integers(-128, 1023),
    st.sampled_from([-129, -1, 0, 1023, 1024, 10**6, -(10**6), True, False, None]),
    st.integers(),
    st.floats(allow_nan=False),
)
_JOURNAL_LEAVES = st.one_of(
    st.tuples(_INTS, _INTS, _DIGESTS, _DIGESTS),
    st.tuples(_INTS, _INTS, st.one_of(_DIGESTS, st.lists(_HEX, max_size=1)), _DIGESTS),
    st.tuples(_INTS, _INTS, _DIGESTS),
    st.tuples(_INTS, _INTS, _DIGESTS, _DIGESTS, _INTS),
    st.lists(st.one_of(_INTS, _DIGESTS), min_size=4, max_size=4),
    _LEAVES,
    _HEX,
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_JOURNAL_LEAVES, max_size=20), st.data())
def test_levels_match_the_reference_loop(values, data):
    levels = _build(values)
    tree = MerkleTree(values)
    assert tree.root == levels[-1][0] == merkle_root(values)
    if not values:
        return
    for index, value in enumerate(values):
        proof = tree.prove(index)
        assert proof.path == _reference_path(levels, index)
        unstamped = dataclasses.replace(proof)
        for candidate in (value, data.draw(_JOURNAL_LEAVES)):
            assert unstamped.root_from(candidate) == _reference_root(proof, candidate)
    # root_from over a path whose siblings are near misses, not digests.
    index = data.draw(st.integers(0, len(values) - 1))
    path = tuple(
        (data.draw(st.one_of(st.just(sibling), _DIGESTS, _INTS)), is_right)
        for sibling, is_right in tree.prove(index).path
    )
    forged = MerkleProof(index, len(values), path)
    assert forged.root_from(values[index]) == _reference_root(forged, values[index])


@pytest.mark.parametrize("count", [1023, 1025])
@pytest.mark.parametrize("modulus", [1 << 20, 3], ids=["position=index", "small-position"])
def test_leaf_indices_past_the_int_table_match_the_reference(count, modulus):
    op, result = sha256_hex("op"), sha256_hex("result")
    values = tuple((7, position % modulus, op, result) for position in range(count))
    levels = _build(values)
    tree = MerkleTree(values)
    assert tree.root == levels[-1][0]
    assert tree.prove(count - 1).path == _reference_path(levels, count - 1)


def test_every_pass_of_a_build_is_counted(hash_calls):
    op = sha256_hex("op")
    MerkleTree([(1, position, op, op) for position in range(5)])
    # Five leaves, then levels of 3, 2 and 1 nodes: all pre-encoded.
    assert len(hash_calls) == 5 + 3 + 2 + 1
    assert all(type(call) is bytes for call in hash_calls)
    del hash_calls[:]
    MerkleTree([(1, 0, "op", op)])  # a short digest: the encoder's path
    assert hash_calls == [("merkle-leaf", 0, (1, 0, "op", op))]
