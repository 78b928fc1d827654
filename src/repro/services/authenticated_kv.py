"""Merkle-authenticated key-value store (Section IV).

This is the service SBFT's single-message client acknowledgement relies on:
after executing decision block ``s`` the replica's state digest ``d_s`` is a
commitment to the whole execution history, so an E-collector can hand the
client one Merkle proof showing that its operation was executed as the
``l``-th operation of block ``s`` with result ``val``, verifiable against
``d_s`` alone.

The digest is an incremental hash chain over per-block execution journals::

    d_0 = H("genesis")
    d_s = H(d_{s-1} || s || journal_root_s)

where ``journal_root_s`` is the Merkle root over the block's per-operation
entries ``(s, l, H(o), H(val))``.  Because execution is deterministic, the
chain commits to the full key-value state as well as to every executed
operation; this mirrors the history-chaining commitment the paper introduces
for its pipelined view change (Section V-G.1) and keeps ``digest()`` O(1) per
block instead of re-hashing the entire store.

A proof for operation ``l`` of block ``s`` is the entry's Merkle path inside
``journal_root_s`` plus ``d_{s-1}``; verification recomputes
``H(d_{s-1} || s || root)`` and compares with ``d_s``.  Proofs therefore stay
valid no matter how many blocks execute afterwards — exactly what the
execute-ack needs, since the π certificate is over ``d_s``.
"""

from __future__ import annotations

import copy
from dataclasses import field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core import execution_cache
from repro.crypto.hashing import memo_key, sha256_hex
from repro.crypto.merkle import MerkleProof, MerkleTree
from repro.errors import InvalidProof
from repro.records import frozen_record
from repro.services.interface import (
    AuthenticatedService,
    BlockOperations,
    ExecutionProof,
    Operation,
    OperationResult,
)
from repro.services.kvstore import KVOperation, KVStore

GENESIS_DIGEST = sha256_hex("authkv-genesis")


@frozen_record
class KVProof:
    """Proof bundle: entry-in-block Merkle path plus the previous chain digest.
    ``entry`` is the tree's own leaf tuple ``(s, l, H(o), H(val))``; the
    ``_chained`` stamp (written only by ``prove``, the ``MerkleProof._proved``
    pattern) is the chain step ``(prev_digest, s, journal root, d_s)``."""

    entry: Tuple[int, int, str, str]
    entry_proof: MerkleProof
    prev_digest: str
    size_bytes: int = field(init=False, compare=False, repr=False, default=0)
    _chained: Any = field(init=False, compare=False, repr=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "size_bytes", 96 + self.entry_proof.size_bytes)


def operation_digest(operation: Operation) -> str:
    # Replicas all journal the *same* Operation object (operations travel
    # inside shared message objects), so the digest is stashed directly on
    # the instance: one hash per cluster.
    digest = getattr(operation, "_authkv_digest", None)
    if digest is None:
        digest = sha256_hex("op", operation.kind, operation.client_id, operation.timestamp, operation.payload)
        object.__setattr__(operation, "_authkv_digest", digest)
    return digest


def block_operation_digests(operations: Sequence[Operation]) -> Tuple[str, ...]:
    """Per-operation digests of a block: what the journal leaves commit to.

    Every replica executes the one ``BlockOperations`` instance of the shared
    ``PrePrepare`` plan, so the tuple is kept on it: built by the first
    replica to journal the block, read by any peer that journals it too
    instead of replaying.  Any other sequence (direct callers, tests) is
    digested on the spot.
    """
    shared = type(operations) is BlockOperations
    digests = operations.digests if shared else None
    if digests is None:
        digests = tuple(map(operation_digest, operations))
        if shared:
            operations.digests = digests
    return digests


def chain_step(prev_digest: str, sequence: int, journal_root: str) -> str:
    """One step of the state-digest hash chain."""
    return sha256_hex("authkv-chain", prev_digest, sequence, journal_root)


class AuthenticatedKVStore(AuthenticatedService):
    """Key-value store with the paper's ``digest``/``proof``/``verify`` API."""

    def __init__(self, persist_cost_per_byte: float = 5e-9):
        self._store = KVStore(persist_cost_per_byte=persist_cost_per_byte)
        self._chain_digest = GENESIS_DIGEST
        self._journal_results: Dict[int, Tuple[OperationResult, ...]] = {}
        self._journal_trees: Dict[int, MerkleTree] = {}
        self._prev_digest: Dict[int, str] = {}
        self._digest_at: Dict[int, str] = {}
        self._block_order: List[int] = []
        # Execution-cache state fingerprint: ``(contents digest, chain digest
        # at computation time)``.  The anchor pins *when* the contents were
        # fingerprinted, so a fingerprint computed after a state transfer can
        # never alias one computed at genesis even if the raw contents digests
        # coincide.  Invalidated by every non-journaled mutation.
        self._state_fingerprint: Optional[Tuple[str, str]] = None
        # ``memo_key(value) -> H("result", value)``: the first executor's
        # journal and the clients' verifier see the same few values over and
        # over (ledger receipts are rebuilt per transaction).  At most one
        # entry per distinct result this store journaled or checked.
        self._digest_memo: Dict[Any, str] = {}

    # ------------------------------------------------------------------
    # ReplicatedService
    # ------------------------------------------------------------------
    def execute(self, operation: Operation) -> OperationResult:
        # Out-of-band execution (tests, direct callers) mutates the store
        # without journaling; drop the fingerprint like ``put`` does.
        self._state_fingerprint = None
        return self._store.execute(operation)

    def query(self, operation: Operation) -> OperationResult:
        return self._store.query(operation)

    def execution_cost(self, operation: Operation) -> float:
        return self._store.execution_cost(operation) + 2e-6

    def execute_block(self, sequence: int, operations: Sequence[Operation]) -> Sequence[OperationResult]:
        """Execute a decision block and journal it for later proofs.

        The first replica of a cluster to execute a committed block records
        the results, the ordered state delta and the journal record on the
        shared block (:mod:`repro.core.execution_cache`); its n-1 peers replay
        that entry instead of re-running ``KVStore.execute`` per operation.
        Replay is decision-for-decision identical — same results, same journal
        entries, same proofs, same chain digests, and the *simulated*
        ``execution_cost`` accounting untouched — which
        ``tests/test_kv_execution_cache.py`` pins on fixed-seed clusters.
        Peers return and journal the first executor's results tuple itself.
        """
        fingerprint = self._state_fingerprint
        if fingerprint is None:
            fingerprint = (self._store.contents_digest(), self._chain_digest)
            self._state_fingerprint = fingerprint
        state_key = ("kv", fingerprint, self._chain_digest, sequence)
        cached = execution_cache.lookup(operations, state_key)
        if cached is not None:
            results, delta, journal = cached
            # Replay: same puts/deletes in the same order (so even the raw
            # dict insertion order matches an uncached execution), then the
            # recorded journal bookkeeping with no re-hashing at all.
            self._store.replay_delta(delta)
            self.replay_block(sequence, results, *journal)
            return results

        # First execution of this block from this state: execute and record
        # the state delta (the exact mutation stream, not a compacted map) for
        # the peers.
        store_execute = self._store.execute
        executed = []
        writes: List[tuple] = []
        has_deletes = False
        for operation in operations:
            executed.append(store_execute(operation))
            payload = operation.payload
            if isinstance(payload, KVOperation):
                action = payload.action
                if action == "put":
                    writes.append((payload.key, payload.value))
                elif action == "delete":
                    writes.append((payload.key,))
                    has_deletes = True
        results = tuple(executed)
        journal = self.journal_block(sequence, operations, results)
        execution_cache.store(operations, state_key, (results, (tuple(writes), has_deletes), journal))
        return results

    def journal_block(
        self,
        sequence: int,
        operations: Sequence[Operation],
        results: Sequence[OperationResult],
    ) -> Tuple[MerkleTree, str]:
        """Journal an already-executed block so it can be proven later.

        Used directly by services (e.g. the ledger) that execute operations
        through their own engine but store state in this authenticated store.
        Returns the journal record ``(tree, new chain digest)``, the tree's
        leaves being the entries ``(s, l, H(o), H(val))``: what a replay entry
        keeps so peers can :meth:`replay_block`.
        """
        results = tuple(results)
        tree = MerkleTree(tuple(
            (sequence, position, op_digest, self._result_digest(result.value))
            for position, (op_digest, result) in enumerate(
                zip(block_operation_digests(operations), results)
            )
        ))
        new_digest = chain_step(self._chain_digest, sequence, tree.root)
        self.replay_block(sequence, results, tree, new_digest)
        return tree, new_digest

    def replay_block(
        self,
        sequence: int,
        results: Tuple[OperationResult, ...],
        tree: MerkleTree,
        new_digest: str,
    ) -> None:
        """Append a block whose journal record is already known: the
        bookkeeping of :meth:`journal_block` with no hashing and no copies."""
        self._journal_results[sequence] = results
        self._journal_trees[sequence] = tree
        self._prev_digest[sequence] = self._chain_digest
        self._chain_digest = new_digest
        self._digest_at[sequence] = new_digest
        self._block_order.append(sequence)

    def snapshot(self) -> Any:
        # The leaf tuples hold only ints and strs: shipped as they are.
        return {
            "data": self._store.snapshot(),
            "blocks": [
                {
                    "sequence": sequence,
                    "leaves": self._journal_trees[sequence].leaves,
                    "results": copy.deepcopy(self._journal_results[sequence]),
                }
                for sequence in self._block_order
            ],
        }

    def restore(self, snapshot: Any) -> None:
        self._store.restore(snapshot["data"])
        # Restored state was not built through this instance's journal chain;
        # re-fingerprint before the next cached block.
        self._state_fingerprint = None
        self._chain_digest = GENESIS_DIGEST
        self._journal_results = {}
        self._journal_trees = {}
        self._prev_digest = {}
        self._digest_at = {}
        self._block_order = []
        for block in snapshot["blocks"]:
            sequence = block["sequence"]
            tree = MerkleTree(block["leaves"])
            new_digest = chain_step(self._chain_digest, sequence, tree.root)
            self.replay_block(sequence, block["results"], tree, new_digest)

    def _result_digest(self, value: Any) -> str:
        # Only the return value is committed: it is what the client receives
        # in an execute-ack and checks against the proof (Section V-A).
        key = memo_key(value)
        try:
            digest = self._digest_memo.get(key)
        except TypeError:  # an unhashable part (a list): hash every time
            return sha256_hex("result", value)
        if digest is None:
            digest = self._digest_memo[key] = sha256_hex("result", value)
        return digest

    # ------------------------------------------------------------------
    # AuthenticatedService
    # ------------------------------------------------------------------
    def digest(self) -> str:
        """Current state digest (the tip of the hash chain)."""
        return self._chain_digest

    def contents_digest(self) -> str:
        """Digest of the raw key-value contents (not the journal chain).

        The chain digest only commits to *journaled* blocks; direct writes
        (genesis allocations, unreplicated baselines) bypass it.  The ledger's
        execution cache therefore fingerprints the raw contents once and
        relies on the chain digest for everything journaled afterwards.
        """
        return self._store.contents_digest()

    def prove(self, sequence: int, position: int) -> ExecutionProof:
        tree = self._journal_trees.get(sequence)
        if tree is None:
            raise InvalidProof(f"no executed block with sequence {sequence}")
        if position < 0 or position >= len(tree):
            raise InvalidProof(f"position {position} out of range for block {sequence}")
        prev_digest, digest = self._prev_digest[sequence], self._digest_at[sequence]
        path = tree.prove(position)
        proof = KVProof(tree.leaves[position], path, prev_digest)
        # ``path._proved[1]`` is the journal root the path was cut under.
        object.__setattr__(proof, "_chained", (prev_digest, sequence, path._proved[1], digest))
        return ExecutionProof(sequence, position, digest, proof)

    def verify(
        self,
        digest: str,
        operation: Operation,
        value: Any,
        sequence: int,
        position: int,
        proof: ExecutionProof,
    ) -> bool:
        kv_proof = proof.proof
        if not isinstance(kv_proof, KVProof):
            return False
        entry = kv_proof.entry
        if type(entry) is not tuple or len(entry) != 4:
            return False
        if entry[0] != sequence or entry[1] != position:
            return False
        if entry[2] != operation_digest(operation) or entry[3] != self._result_digest(value):
            return False
        # A malformed path is no proof (``MerkleTree.verify``'s guard).
        if not isinstance(kv_proof.entry_proof, MerkleProof):
            return False
        try:
            journal_root = kv_proof.entry_proof.root_from(entry)
        except (TypeError, ValueError):
            return False
        # The stamped chain step answers only for exactly what it hashed.
        chained = kv_proof._chained
        if (chained is not None and chained[0] is kv_proof.prev_digest and type(sequence) is int
                and chained[1] == sequence and chained[2] == journal_root):
            return chained[3] == digest
        return chain_step(kv_proof.prev_digest, sequence, journal_root) == digest

    @property
    def store(self) -> KVStore:
        """The plain store under the journal."""
        return self._store

    def put(self, key: str, value: Any) -> None:
        # Direct (non-journaled) write: drop the execution-cache fingerprint
        # so a diverged store can never hit a stale entry.
        self._state_fingerprint = None
        self._store.put(key, value)

    @staticmethod
    def make_put(key: str, value: Any, client_id: int = -1, timestamp: int = 0) -> Operation:
        op = KVOperation.put(key, value)
        return Operation(kind=op.kind, payload=op.payload, client_id=client_id, timestamp=timestamp)

    @staticmethod
    def make_get(key: str, client_id: int = -1, timestamp: int = 0) -> Operation:
        op = KVOperation.get(key)
        return Operation(
            kind=op.kind, payload=op.payload, client_id=client_id, timestamp=timestamp, read_only=True
        )
