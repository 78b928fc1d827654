"""Merkle trees and inclusion proofs.

SBFT authenticates the replicated key-value store with a Merkle-tree interface
(Section IV): ``digest(D)`` is the root hash, ``proof(o, l, s, D, val)``
produces an inclusion proof that operation ``o`` was executed as the ``l``-th
operation of decision block ``s`` with result ``val``, and ``verify`` checks
the proof against the root digest.  The same machinery authenticates read-only
queries against a state snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

from repro.crypto.hashing import memo_key, sha256_hex
from repro.errors import InvalidProof

_LEAF_PREFIX = "merkle-leaf"
_NODE_PREFIX = "merkle-node"
_EMPTY_ROOT = sha256_hex("merkle-empty")

#: Every replica journals the same block and therefore builds the same tree;
#: memoizing the pure leaf/node hashes makes that work once-per-cluster instead
#: of once-per-replica.  Cleared wholesale at the limit (pure recomputation).
_HASH_MEMO_LIMIT = 1 << 16
_leaf_memo: dict = {}
_node_memo: dict = {}


def _leaf_hash(index: int, value: Any) -> str:
    key = (index, memo_key(value))
    try:
        cached = _leaf_memo.get(key)
    except TypeError:  # unhashable leaf value: compute directly
        return sha256_hex(_LEAF_PREFIX, index, value)
    if cached is None:
        cached = sha256_hex(_LEAF_PREFIX, index, value)
        if len(_leaf_memo) >= _HASH_MEMO_LIMIT:
            _leaf_memo.clear()
        _leaf_memo[key] = cached
    return cached


def _node_hash(left: str, right: str) -> str:
    key = (left, right)
    cached = _node_memo.get(key)
    if cached is None:
        cached = sha256_hex(_NODE_PREFIX, left, right)
        if len(_node_memo) >= _HASH_MEMO_LIMIT:
            _node_memo.clear()
        _node_memo[key] = cached
    return cached


@dataclass(frozen=True, slots=True)
class MerkleProof:
    """An inclusion proof: the leaf index, value hash and sibling path."""

    leaf_index: int
    leaf_count: int
    path: Tuple[Tuple[str, bool], ...]  # (sibling_hash, sibling_is_right)
    size_bytes: int = field(init=False, compare=False, repr=False, default=0)

    def __post_init__(self):
        object.__setattr__(self, "size_bytes", 16 + 32 * len(self.path))

    def root_from(self, value: Any) -> str:
        """Recompute the root implied by this proof for ``value``."""
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
        return MerkleProof(leaf_index=index, leaf_count=len(self._values), path=tuple(path))

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
