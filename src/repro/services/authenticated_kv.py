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

The journal keeps only what a proof can still be asked for: the replica
prunes it at its stable point (:meth:`prune`), and what remains hangs from
the prune point, its *anchor* ``(sequence, d_sequence)``.  A snapshot ships
the anchor, the number of blocks the chain held there and the blocks above
it, and a restore replays them from there.
"""

from __future__ import annotations

import bisect
import copy
import weakref
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
    """Key-value store with the paper's ``digest``/``proof``/``verify`` API.

    **Run once, apply everywhere.**  A block's replay entry is ``(results,
    delta, price, receipts, journal record)``: what the block returned, the
    ordered writes it made, its simulated CPU price, the ledger's receipts
    (none here) and ``(journal tree, new chain digest)``.  The first replica
    to *start* block s (``Replica._try_execute`` asks
    :meth:`block_execution_cost`, when its state is s's pre-state) records it
    by a dry run (:meth:`_dry_run`) on the shared block
    (:mod:`repro.core.execution_cache`) under the state key
    ``(fingerprint, chain digest, s)``; each replica whose key matches prices
    the block off that entry, and every replica, the recorder included,
    applies the entry it priced from when the block finishes
    (:meth:`execute_block`); those that priced off the recorded entry end
    up holding one copy-on-write contents object (:meth:`_apply`).  A
    replica whose key differs (written out of band, or restored from a
    snapshot that carried no fingerprint) dry-runs the block itself and
    leaves the shared entry alone; one restored by state transfer takes the
    donor's fingerprint (:meth:`restore`) and shares again.  The
    ledger subclass changes only how a block runs (:meth:`_run_block`) and
    keeps its receipts.
    """

    def __init__(self, persist_cost_per_byte: float = 5e-9):
        self._store = KVStore(persist_cost_per_byte=persist_cost_per_byte)
        self._chain_digest = GENESIS_DIGEST
        self._journal_results: Dict[int, Tuple[OperationResult, ...]] = {}
        self._journal_trees: Dict[int, MerkleTree] = {}
        self._prev_digest: Dict[int, str] = {}
        self._digest_at: Dict[int, str] = {}
        self._block_order: List[int] = []
        # The prune point ``(sequence, chain digest there)``: every journaled
        # block above it is held (and a few this store journaled itself below
        # it, see ``restore``).  ``_journaled`` counts the chain's blocks.
        self._anchor: Tuple[int, str] = (0, GENESIS_DIGEST)
        self._journaled = 0
        # Execution-cache state fingerprint: ``(contents digest, chain digest
        # at computation time)``.  The chain digest covers every journaled
        # block after it; the anchor pins *when* the contents were
        # fingerprinted, so a fingerprint computed after an out-of-band write
        # can never alias one computed at genesis even if the raw contents
        # digests coincide.  Recomputed after any write the journal does not
        # cover (``KVStore.written_directly``); a restore adopts the donor's.
        self._state_fingerprint: Optional[Tuple[str, str]] = None
        # ``(operations, state key, entry)`` of the block this store last
        # priced: the entry its ``execute_block`` applies.
        self._priced: Optional[Tuple[Sequence[Operation], Tuple, Tuple]] = None
        # ``memo_key(value) -> H("result", value)``: the recorder's journal
        # and the clients' verifier see the same few values over and over
        # (ledger receipts are rebuilt per transaction).  At most one entry
        # per distinct result this store journaled or checked.
        self._digest_memo: Dict[Any, str] = {}

    # ------------------------------------------------------------------
    # ReplicatedService
    # ------------------------------------------------------------------
    def execute(self, operation: Operation) -> OperationResult:
        return self._store.execute(operation)

    def query(self, operation: Operation) -> OperationResult:
        return self._store.query(operation)

    def execution_cost(self, operation: Operation) -> float:
        return self._store.execution_cost(operation) + 2e-6

    def block_execution_cost(self, sequence: int, operations: Sequence[Operation]) -> float:
        """Simulated CPU seconds block ``sequence`` takes from the current
        state: the price its replay entry carries."""
        return self._entry(sequence, operations)[2]

    def execute_block(self, sequence: int, operations: Sequence[Operation]) -> Sequence[OperationResult]:
        """Execute a decision block and journal it for later proofs, by
        applying its replay entry; peers return and journal the recorder's
        results tuple itself."""
        return self._apply(sequence, self._entry(sequence, operations))

    def _entry(self, sequence: int, operations: Sequence[Operation]) -> Tuple:
        """The replay entry of block ``sequence`` from the current state: the
        one this store priced the block from, else the one on the shared
        block if it was recorded from this state, else a fresh dry run
        (offered to the block for the peers)."""
        store = self._store
        fingerprint = self._state_fingerprint
        if fingerprint is None or store.written_directly:
            fingerprint = self._state_fingerprint = (store.contents_digest(), self._chain_digest)
            store.written_directly = False
        state_key = (fingerprint, self._chain_digest, sequence)
        priced = self._priced
        if priced is not None and priced[0] is operations and priced[1] == state_key:
            return priced[2]
        entry = execution_cache.lookup(operations, state_key)
        if entry is None:
            entry = self._dry_run(sequence, operations)
            execution_cache.store(operations, state_key, entry)
        self._priced = (operations, state_key, entry)
        return entry

    def _dry_run(self, sequence: int, operations: Sequence[Operation]) -> Tuple:
        """Run block ``sequence`` over an overlay of the current state and
        return its replay entry; the contents, fingerprint and journal are
        left as they were."""
        (results, price, receipts), delta = self._store.dry_run(self._run_block, operations)
        return results, delta, price, receipts, self.journal_record(sequence, operations, results)

    def _run_block(self, operations: Sequence[Operation]) -> Tuple:
        """``(results, price, receipts)`` of running ``operations`` in order."""
        results = tuple(map(self._store.execute, operations))
        return results, sum(map(self.execution_cost, operations)), ()

    def _apply(self, sequence: int, entry: Tuple) -> Tuple[OperationResult, ...]:
        """Apply the replay entry this store priced from: its writes, then
        its journal record, with no execution and no hashing.  Replicas that
        priced the block off the recorded entry share one post-state: the
        first of them to apply builds it (a copy of its pre-state, then the
        writes) and leaves a weak handle on the block, and the others adopt
        it while any store still holds it.  A replica that ran the block
        itself applies the writes to its own contents."""
        results, delta, _price, _receipts, journal = entry
        operations = self._priced[0]
        self._priced = None
        store = self._store
        replay = operations.replay if type(operations) is BlockOperations else None
        if replay is None or replay[1] is not entry:
            store.replay_delta(delta)
        else:
            handle = operations.post_state
            post_state = handle() if handle is not None else None
            if post_state is None:
                store.replay_delta(delta)
                operations.post_state = weakref.ref(store.share())
            else:
                store.adopt(post_state)
        self.replay_block(sequence, results, *journal)
        return results

    def journal_record(
        self,
        sequence: int,
        operations: Sequence[Operation],
        results: Sequence[OperationResult],
    ) -> Tuple[MerkleTree, str]:
        """The journal record of a block executed on top of the current chain
        digest, appending nothing: ``(tree, new chain digest)``, the tree's
        leaves being the entries ``(s, l, H(o), H(val))``.  What a replay
        entry keeps so every replica can :meth:`replay_block`."""
        tree = MerkleTree(tuple(
            (sequence, position, op_digest, self._result_digest(result.value))
            for position, (op_digest, result) in enumerate(
                zip(block_operation_digests(operations), results)
            )
        ))
        return tree, chain_step(self._chain_digest, sequence, tree.root)

    def replay_block(
        self,
        sequence: int,
        results: Tuple[OperationResult, ...],
        tree: MerkleTree,
        new_digest: str,
    ) -> None:
        """Append a block whose journal record is already known, with no
        hashing and no copies."""
        self._journal_results[sequence] = results
        self._journal_trees[sequence] = tree
        self._prev_digest[sequence] = self._chain_digest
        self._chain_digest = new_digest
        self._digest_at[sequence] = new_digest
        self._block_order.append(sequence)
        self._journaled += 1

    def prune(self, up_to: int) -> None:
        """Forget the journal's blocks at or below ``up_to``: no proof of
        them will be asked for.  The last one forgotten above the anchor
        becomes the anchor."""
        order = self._block_order
        cut = bisect.bisect_right(order, up_to)
        if cut == 0:
            return
        for sequence in order[:cut]:
            del self._journal_results[sequence], self._journal_trees[sequence], self._prev_digest[sequence]
            digest = self._digest_at.pop(sequence)
        if sequence > self._anchor[0]:
            self._anchor = (sequence, digest)
        del order[:cut]

    def snapshot(self) -> Any:
        # The leaf tuples hold only ints and strs: shipped as they are.  The
        # fingerprint travels too (None if a direct write voided it), so a
        # restored store keys its state exactly as the donor and its peers do.
        store = self._store
        above = self._block_order[bisect.bisect_right(self._block_order, self._anchor[0]):]
        return {
            "fingerprint": None if store.written_directly else self._state_fingerprint,
            "data": store.snapshot(),
            "anchor": (*self._anchor, self._journaled - len(above)),
            "blocks": [
                {
                    "sequence": sequence,
                    "leaves": self._journal_trees[sequence].leaves,
                    "results": copy.deepcopy(self._journal_results[sequence]),
                }
                for sequence in above
            ],
        }

    def restore(self, snapshot: Any) -> None:
        # The restored contents are the donor's at the chain digest rebuilt
        # below, so the donor's fingerprint names them: adopting it (in place
        # of the written-directly mark ``KVStore.restore`` sets) keeps this
        # store's state key equal to its peers'.  Without one, re-anchor.
        store = self._store
        store.restore(snapshot["data"])
        self._state_fingerprint = snapshot["fingerprint"]
        store.written_directly = self._state_fingerprint is None
        # The chain restarts at the donor's anchor.  Blocks this store
        # journaled itself at or below it stay until pruned: an E-collector
        # may still owe acks for one, and the chain agrees there.
        anchor, self._chain_digest, self._journaled = snapshot["anchor"]
        self._anchor = (anchor, self._chain_digest)
        order = self._block_order
        cut = bisect.bisect_right(order, anchor)
        for sequence in order[cut:]:
            del self._journal_results[sequence], self._journal_trees[sequence]
            del self._prev_digest[sequence], self._digest_at[sequence]
        del order[cut:]
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
