"""Merkle trees and inclusion proofs.

SBFT authenticates the replicated key-value store with a Merkle-tree interface
(Section IV): ``digest(D)`` is the root hash, ``proof(o, l, s, D, val)``
produces an inclusion proof that operation ``o`` was executed as the ``l``-th
operation of decision block ``s`` with result ``val``, and ``verify`` checks
the proof against the root digest.  The same machinery authenticates read-only
queries against a state snapshot.

A tree is immutable: it holds a tuple of leaves and hashes every level once,
at construction.  Leaves ``H("merkle-leaf", index, value)`` and nodes
``H("merkle-node", left, right)`` hash the canonical encoding; a node over two
64-char ASCII strings and a journal leaf ``(s, l, H(o), H(val))`` with small
ints and 64-char ASCII digests are hashed from pre-encoded bytes, anything
else through :func:`sha256_hex`, with byte-identical results.

Proof provenance (the ``Signature._signed`` pattern).  The replica that cuts a
proof has the whole tree, so :meth:`MerkleTree.prove` records on the proof the
leaf it was cut for and the root the path hashes to, and
:meth:`MerkleProof.root_from` returns that root without hashing when asked
about exactly that leaf: the client an E-collector ships the proof object to
checks it at no hashing cost.  The record is type-tagged
(:func:`repro.crypto.hashing.memo_key`: ``1`` and ``1.0`` are different
leaves, exactly as in the canonical encoding), is not an ``__init__`` field
(so it never survives direct construction or ``dataclasses.replace``), and
lives and dies with the proof.  Anything without a matching record is
recomputed along the path, so the stamp can only save a recomputation, never
change a root — under the simulator's trust model: honest processes do not
write the record themselves.
"""

from __future__ import annotations

from dataclasses import field
from hashlib import sha256
from typing import Any, List, Sequence, Tuple

from repro.crypto.hashing import _LEN4, _SMALL_INTS, memo_key, provenance_key, sha256_hex
from repro.errors import InvalidProof
from repro.records import frozen_record

_LEAF_PREFIX = "merkle-leaf"
_NODE_PREFIX = "merkle-node"
_EMPTY_ROOT = sha256_hex("merkle-empty")

# Canonical-encoding pieces of the two hot shapes.  The node pieces are ASCII,
# so a node's input is built as one str and encoded once.
_HEX_LEN = _LEN4[64]
_LEAF_HEAD = _LEN4[11] + _LEAF_PREFIX.encode()
_NODE_HEAD = (_LEN4[11] + _NODE_PREFIX.encode() + _HEX_LEN).decode()
_NODE_GLUE = _HEX_LEN.decode()


def _leaf_hash(index: Any, value: Any) -> str:
    """``sha256_hex("merkle-leaf", index, value)``; a journal leaf's tuple
    encodes as its two prefixed ints and two prefixed 64-byte digests
    (``2 * (4 + 64) = 136`` bytes)."""
    if type(value) is tuple and len(value) == 4 and type(index) is int and -128 <= index < 1024:
        sequence, position, operation, result = value
        if (
            type(sequence) is int and -128 <= sequence < 1024
            and type(position) is int and -128 <= position < 1024
            and type(operation) is str and type(result) is str
            and len(operation) == 64 == len(result) and operation.isascii() and result.isascii()
        ):
            ints = _SMALL_INTS[sequence] + _SMALL_INTS[position]
            return sha256(b"".join((
                _LEAF_HEAD, _SMALL_INTS[index], _LEN4[len(ints) + 136], ints,
                _HEX_LEN, operation.encode(), _HEX_LEN, result.encode(),
            ))).hexdigest()
    return sha256_hex(_LEAF_PREFIX, index, value)


def _node_hash(left: Any, right: Any) -> str:
    """``sha256_hex("merkle-node", left, right)``."""
    if (
        type(left) is str and type(right) is str
        and len(left) == 64 == len(right) and left.isascii() and right.isascii()
    ):
        return sha256((_NODE_HEAD + left + _NODE_GLUE + right).encode()).hexdigest()
    return sha256_hex(_NODE_PREFIX, left, right)


@frozen_record
class MerkleProof:
    """An inclusion proof: the leaf index, value hash and sibling path."""

    leaf_index: int
    leaf_count: int
    path: Tuple[Tuple[str, bool], ...]  # (sibling_hash, sibling_is_right)
    size_bytes: int = field(init=False, compare=False, repr=False, default=0)
    # Provenance stash written only by ``MerkleTree.prove``: the
    # ``provenance_key`` of the leaf this path was cut for and the root it
    # hashes to (see the module docstring).
    _proved: Any = field(init=False, compare=False, repr=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "size_bytes", 16 + 32 * len(self.path))

    def root_from(self, value: Any) -> str:
        """The root implied by this proof for ``value``: read off the
        provenance stamp when ``value`` is exactly the proved leaf,
        recomputed along the path otherwise."""
        proved = self._proved
        if proved is not None and proved[0] == memo_key(value):
            return proved[1]
        current = _leaf_hash(self.leaf_index, value)
        for sibling, sibling_is_right in self.path:
            if sibling_is_right:
                current = _node_hash(current, sibling)
            else:
                current = _node_hash(sibling, current)
        return current


class MerkleTree:
    """An immutable Merkle tree over an ordered sequence of values."""

    __slots__ = ("leaves", "_levels")

    def __init__(self, values: Sequence[Any] = ()):
        #: The values, as given (a tuple is kept as the very same object).
        self.leaves: Tuple[Any, ...] = tuple(values)
        if not self.leaves:
            self._levels: List[List[str]] = [[_EMPTY_ROOT]]
            return
        level = [_leaf_hash(index, value) for index, value in enumerate(self.leaves)]
        levels = [level]
        while len(level) > 1:
            if len(level) & 1:
                level.append(level[-1])  # kept: every sibling is at ``index ^ 1``
            pairs = iter(level)
            level = [_node_hash(left, right) for left, right in zip(pairs, pairs)]
            levels.append(level)
        self._levels = levels

    def __len__(self) -> int:
        return len(self.leaves)

    @property
    def root(self) -> str:
        """Root digest (a stable constant for the empty tree)."""
        return self._levels[-1][0]

    def prove(self, index: int) -> MerkleProof:
        """Produce an inclusion proof for the leaf at ``index``."""
        if index < 0 or index >= len(self.leaves):
            raise InvalidProof(f"leaf index {index} out of range")
        levels = self._levels
        path = []
        position = index
        for level in levels[:-1]:
            path.append((level[position ^ 1], not position & 1))
            position >>= 1
        proof = MerkleProof(index, len(self.leaves), tuple(path))
        leaf = self.leaves[index]
        object.__setattr__(proof, "_proved", (provenance_key(leaf), levels[-1][0]))
        return proof

    @staticmethod
    def verify(root: str, value: Any, proof: MerkleProof) -> bool:
        """Check that ``value`` is included under ``root`` per ``proof``.  A
        malformed path (not iterable, or an entry that is not a pair) is no
        proof; any other error is a bug and propagates."""
        try:
            return proof.root_from(value) == root
        except (TypeError, ValueError):
            return False


def merkle_root(values: Sequence[Any]) -> str:
    """Convenience: root digest of a list of values."""
    return MerkleTree(values).root
