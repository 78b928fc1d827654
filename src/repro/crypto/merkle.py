"""Merkle trees and inclusion proofs.

SBFT authenticates the replicated key-value store with a Merkle-tree interface
(Section IV): ``digest(D)`` is the root hash, ``proof(o, l, s, D, val)``
produces an inclusion proof that operation ``o`` was executed as the ``l``-th
operation of decision block ``s`` with result ``val``, and ``verify`` checks
the proof against the root digest.  The same machinery authenticates read-only
queries against a state snapshot.

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

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

from repro.crypto.hashing import memo_key, provenance_key, sha256_hex
from repro.errors import InvalidProof

_LEAF_PREFIX = "merkle-leaf"
_NODE_PREFIX = "merkle-node"
_EMPTY_ROOT = sha256_hex("merkle-empty")


def _leaf_hash(index: int, value: Any) -> str:
    return sha256_hex(_LEAF_PREFIX, index, value)


def _node_hash(left: str, right: str) -> str:
    return sha256_hex(_NODE_PREFIX, left, right)


@dataclass(frozen=True, slots=True)
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
    """A Merkle tree over an ordered list of values."""

    def __init__(self, values: Sequence[Any] = ()):
        self._values: List[Any] = list(values)
        self._levels: Optional[List[List[str]]] = None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def append(self, value: Any) -> int:
        """Append a leaf; returns its index."""
        self._values.append(value)
        self._levels = None
        return len(self._values) - 1

    def extend(self, values: Sequence[Any]) -> None:
        self._values.extend(values)
        self._levels = None

    def update(self, index: int, value: Any) -> None:
        self._values[index] = value
        self._levels = None

    def __len__(self) -> int:
        return len(self._values)

    # ------------------------------------------------------------------
    # Hashing
    # ------------------------------------------------------------------
    def _build(self) -> List[List[str]]:
        if self._levels is not None:
            return self._levels
        if not self._values:
            self._levels = [[_EMPTY_ROOT]]
            return self._levels
        level = [_leaf_hash(i, v) for i, v in enumerate(self._values)]
        levels = [level]
        while len(level) > 1:
            nxt = []
            for i in range(0, len(level), 2):
                left = level[i]
                right = level[i + 1] if i + 1 < len(level) else level[i]
                nxt.append(_node_hash(left, right))
            level = nxt
            levels.append(level)
        self._levels = levels
        return levels

    @property
    def root(self) -> str:
        """Root digest (a stable constant for the empty tree)."""
        return self._build()[-1][0]

    def prove(self, index: int) -> MerkleProof:
        """Produce an inclusion proof for the leaf at ``index``."""
        if index < 0 or index >= len(self._values):
            raise InvalidProof(f"leaf index {index} out of range")
        levels = self._build()
        path = []
        position = index
        for level in levels[:-1]:
            sibling_index = position ^ 1
            if sibling_index >= len(level):
                sibling_index = position
            sibling_is_right = sibling_index > position or sibling_index == position
            path.append((level[sibling_index], bool(sibling_is_right)))
            position //= 2
        proof = MerkleProof(leaf_index=index, leaf_count=len(self._values), path=tuple(path))
        leaf = self._values[index]
        object.__setattr__(proof, "_proved", (provenance_key(leaf), levels[-1][0]))
        return proof

    @staticmethod
    def verify(root: str, value: Any, proof: MerkleProof) -> bool:
        """Check that ``value`` is included under ``root`` per ``proof``."""
        try:
            return proof.root_from(value) == root
        except Exception:  # noqa: BLE001 - malformed proofs simply fail
            return False


def merkle_root(values: Sequence[Any]) -> str:
    """Convenience: root digest of a list of values."""
    return MerkleTree(values).root
