"""Smart-contract ledger: the EVM layered on the authenticated KV store.

This is the topmost layer of Section IV's architecture: ledger operations are
EVM transactions, state (accounts, code, contract storage) lives in the
authenticated key-value store, and execution costs are derived from the gas
each transaction burns (its receipt's ``gas_used``), so the replication
benchmarks see the per-transaction work the block actually did.

**Price by a dry run, replay everywhere.**  "EVM bytecode is deterministic
[so] the new state digest will be equal in all non-faulty replicas" (Section
IX) — which means the n replicas of a cluster all interpret the *identical*
committed block over the *identical* pre-state and produce the identical
results.  Re-interpreting it n times is pure waste in a simulation where all
replicas share one process.  The gas a block burns is known only once it has
run, and a replica must know its cost when it *starts* the block (that is
when ``Replica._try_execute`` reserves the execution core).  So the first
replica to start block s, whose state is then exactly s's pre-state,
dry-runs it (:meth:`LedgerService._dry_run`) against an overlay of that
state: reads see the block's own writes, nothing reaches the store, the
state fingerprint, the receipts or the journal.  The dry run yields the
block's replay entry — results, receipts, the ordered state delta, the price
and the journal record ``(tree, new chain digest)`` — stored on the shared
block (:mod:`repro.core.execution_cache`, also used by the authenticated KV
store) under a key made entirely of digests:

    ("ledger", state fingerprint, chain digest, block number, sequence)

Every replica whose own key matches prices the block off the entry
(:meth:`block_execution_cost`) and, when its execution core finishes, applies
it (:meth:`execute_block`): the delta through ``KVStore.replay_delta``, the
journal record through ``replay_block``, with no EVM run and no hashing.  The
first replica replays too, so state changes only when a block finishes
executing, on every replica alike.  A replica whose key differs (restored by
state transfer, written out of band) dry-runs the block for itself and leaves
the shared entry alone.

The state fingerprint covers what the chain digest cannot: direct
(unjournaled) writes such as genesis allocations.  It is computed lazily from
the full store contents and invalidated whenever the state mutates outside
``execute_block``, so a ledger that diverges through direct ``apply`` calls
can never hit a stale entry.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core import execution_cache
from repro.crypto.costs import CryptoCosts, DEFAULT_COSTS
from repro.errors import InvalidTransaction
from repro.evm.state import WorldState
from repro.evm.transactions import Transaction, TransactionReceipt, apply_transaction
from repro.evm.vm import EVM, BlockContext
from repro.services.authenticated_kv import AuthenticatedKVStore
from repro.services.interface import (
    AuthenticatedService,
    ExecutionProof,
    Operation,
    OperationResult,
)


def ledger_operation(transaction: Transaction, client_id: int = -1, timestamp: int = 0) -> Operation:
    """Wrap an EVM transaction as a replicated-service operation."""
    return Operation(kind="ledger", payload=transaction, client_id=client_id, timestamp=timestamp)


class _LedgerBackend:
    """The world state's store backend, with an overlay for dry runs.

    Reads and writes go straight to the authenticated store's contents dict
    (``KVStore.restore`` refills that dict in place, so the reference holds
    across state transfer).  Writes outside a dry run (genesis funding,
    direct ``apply``/``execute``, unreplicated baselines) go through the
    authenticated store's ``put`` and invalidate the owner's state
    fingerprint so diverged ledgers never share cache entries.  During a dry
    run, writes land in ``overlay`` (first-write order, last value: replayed
    by one ``dict.update`` that leaves the same contents and insertion order
    as the writes themselves) and reads look there first.
    """

    __slots__ = ("get", "_data", "_authkv", "_owner", "overlay")

    def __init__(self, authkv: AuthenticatedKVStore, owner: "LedgerService"):
        self._data = authkv.store.data
        self.get = self._data.get
        self._authkv = authkv
        self._owner = owner
        self.overlay: Optional[Dict[str, Any]] = None

    def put(self, key: str, value: Any) -> None:
        overlay = self.overlay
        if overlay is not None:
            overlay[key] = value
        else:
            self._owner._state_fingerprint = None
            self._authkv.put(key, value)

    def begin_overlay(self) -> Dict[str, Any]:
        overlay = self.overlay = {}
        overlay_get, data_get = overlay.get, self._data.get

        def get(key: str) -> Any:
            value = overlay_get(key)
            return data_get(key) if value is None else value

        self.get = get
        return overlay

    def end_overlay(self) -> None:
        self.overlay = None
        self.get = self._data.get


class LedgerService(AuthenticatedService):
    """EVM-executing replicated service with Merkle authentication."""

    def __init__(self, costs: CryptoCosts = DEFAULT_COSTS):
        self._authkv = AuthenticatedKVStore(persist_cost_per_byte=costs.persist_per_byte)
        self._backend = _LedgerBackend(self._authkv, self)
        self._world = WorldState(backend=self._backend)
        self._block_number = 0
        self._costs = costs
        self._state_fingerprint: Optional[Tuple[str, str]] = None
        self.receipts: List[TransactionReceipt] = []

    # ------------------------------------------------------------------
    # Direct (unreplicated) access — used by workload setup and examples
    # ------------------------------------------------------------------
    def fund(self, address: str, amount: int) -> None:
        """Credit an account out-of-band (genesis allocation)."""
        self._world.add_balance(address, amount)

    def apply(self, transaction: Transaction) -> TransactionReceipt:
        """Apply one transaction directly (the unreplicated base line)."""
        evm = EVM(self._world, BlockContext(number=self._block_number))
        receipt = apply_transaction(self._world, transaction, evm)
        self.receipts.append(receipt)
        return receipt

    # ------------------------------------------------------------------
    # ReplicatedService
    # ------------------------------------------------------------------
    def execute(self, operation: Operation) -> OperationResult:
        evm = EVM(self._world, BlockContext(number=self._block_number))
        return self._execute_with(operation, evm, self.receipts)

    def _execute_with(
        self, operation: Operation, evm: EVM, receipts: List[TransactionReceipt]
    ) -> OperationResult:
        """Execute one operation through a caller-provided EVM instance,
        appending its receipt (if it has one) to ``receipts``."""
        transaction = operation.payload
        if not isinstance(transaction, Transaction):
            return OperationResult(ok=False, error="not a ledger transaction")
        try:
            receipt = apply_transaction(self._world, transaction, evm)
        except InvalidTransaction as exc:
            return OperationResult(ok=False, error=str(exc))
        receipts.append(receipt)
        return OperationResult(
            value={
                "success": receipt.success,
                "gas_used": receipt.gas_used,
                "contract_address": receipt.contract_address,
            },
            ok=receipt.success,
            error=receipt.error,
        )

    def transaction_cost(self, operation: Operation, result: OperationResult) -> float:
        """Modelled CPU seconds of one executed operation: a per-transaction
        overhead, the gas its receipt burned and its persisted bytes
        (``crypto/costs.py`` says where each rate comes from).  A transaction
        that never ran burned no gas; a payload that is no transaction costs
        a rejection."""
        transaction = operation.payload
        if not isinstance(transaction, Transaction):
            return 5e-6
        costs = self._costs
        gas_used = result.value["gas_used"] if result.value is not None else 0
        return (
            costs.evm_base_execute
            + costs.evm_per_gas * gas_used
            + costs.persist_per_byte * transaction.size_bytes
        )

    def query(self, operation: Operation) -> OperationResult:
        payload = operation.payload
        if isinstance(payload, dict) and payload.get("query") == "balance":
            return OperationResult(value=self._world.get_balance(payload["address"]))
        if isinstance(payload, dict) and payload.get("query") == "storage":
            return OperationResult(
                value=self._world.storage_load(payload["address"], payload["slot"])
            )
        return OperationResult(ok=False, error="unknown ledger query")

    def block_execution_cost(self, sequence: int, operations: Sequence[Operation]) -> float:
        """What block ``sequence`` burns from the current state: the price
        its replay entry carries, recorded by whoever dry-ran it first."""
        return self._block_entry(sequence, operations)[3]

    def execute_block(self, sequence: int, operations: Sequence[Operation]) -> Sequence[OperationResult]:
        results, receipts, delta, _cost, journal = self._block_entry(sequence, operations)
        # Apply the recorded state delta (journal-covered, so the fingerprint
        # stays valid), then the recorded journal bookkeeping with no hashing.
        self._block_number += 1
        self._authkv.store.replay_delta(delta)
        self.receipts.extend(receipts)
        self._authkv.replay_block(sequence, results, *journal)
        return results

    def _block_entry(self, sequence: int, operations: Sequence[Operation]) -> Tuple:
        """The replay entry of block ``sequence`` from the current state: the
        one on the shared block if it was recorded from this state, else a
        fresh dry run (offered to the block for the peers)."""
        fingerprint = self._state_fingerprint
        if fingerprint is None:
            # Anchored to the chain digest at computation time, so a
            # fingerprint taken after a restore can never alias one taken
            # at genesis even if the raw contents digests coincide.
            fingerprint = (self._authkv.contents_digest(), self._authkv.digest())
            self._state_fingerprint = fingerprint
        state_key = ("ledger", fingerprint, self._authkv.digest(), self._block_number + 1, sequence)
        entry = execution_cache.lookup(operations, state_key)
        if entry is None:
            entry = self._dry_run(sequence, operations)
            execution_cache.store(operations, state_key, entry)
        return entry

    def _dry_run(self, sequence: int, operations: Sequence[Operation]) -> Tuple:
        """Run block ``sequence`` over an overlay of the current state and
        return its replay entry ``(results, receipts, delta, cost, journal
        record)``; the ledger's state, fingerprint, receipts and journal are
        left as they were."""
        backend = self._backend
        overlay = backend.begin_overlay()
        receipts: List[TransactionReceipt] = []
        try:
            evm = EVM(self._world, BlockContext(number=self._block_number + 1))
            results = tuple(
                self._execute_with(operation, evm, receipts) for operation in operations
            )
        finally:
            backend.end_overlay()
        cost = sum(map(self.transaction_cost, operations, results))
        journal = self._authkv.journal_record(sequence, operations, results)
        return results, tuple(receipts), (tuple(overlay.items()), False), cost, journal

    def snapshot(self) -> Any:
        return {"authkv": self._authkv.snapshot(), "block_number": self._block_number}

    def restore(self, snapshot: Any) -> None:
        self._authkv.restore(snapshot["authkv"])
        self._block_number = snapshot["block_number"]
        # Restored state was not built through this instance's journal chain;
        # re-fingerprint before the next cached block.
        self._state_fingerprint = None

    # ------------------------------------------------------------------
    # AuthenticatedService
    # ------------------------------------------------------------------
    def digest(self) -> str:
        return self._authkv.digest()

    def prove(self, sequence: int, position: int) -> ExecutionProof:
        return self._authkv.prove(sequence, position)

    def verify(
        self,
        digest: str,
        operation: Operation,
        value: Any,
        sequence: int,
        position: int,
        proof: ExecutionProof,
    ) -> bool:
        return self._authkv.verify(digest, operation, value, sequence, position, proof)
