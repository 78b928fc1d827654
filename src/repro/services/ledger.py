"""Smart-contract ledger: the EVM layered on the authenticated KV store.

This is the topmost layer of Section IV's architecture: ledger operations are
EVM transactions, state (accounts, code, contract storage) lives in the
authenticated key-value store, and execution costs are derived from gas used
so the replication benchmarks see realistic per-transaction work.

**Execute once, replay n-1 times.**  "EVM bytecode is deterministic [so] the
new state digest will be equal in all non-faulty replicas" (Section IX) —
which means the n replicas of a cluster all interpret the *identical*
committed block over the *identical* pre-state and produce the identical
results.  Re-interpreting it n times is pure waste in a simulation where all
replicas share one process.  ``execute_block`` therefore looks on the shared
block (:mod:`repro.core.execution_cache`, also used by the authenticated KV
store) for an entry recorded from its own state, a key made entirely of
digests:

    ("ledger", state fingerprint, chain digest, block number, sequence)

The first replica to execute a committed block stores the operation results,
transaction receipts and the ordered state delta (the backend ``put`` stream);
its n-1 peers replay the delta and journal the same results tuple instead of
re-running the EVM.  Replay is decision-for-decision identical: same results,
same receipts, same journal entries, same chain digest, and the *simulated*
``execution_cost`` accounting is untouched (every replica still charges the
same simulated CPU; only host wall-clock is saved;
``tests/test_execution_cache.py`` pins replay-vs-execute byte-equality on
fixed-seed clusters).

The state fingerprint covers what the chain digest cannot: direct
(unjournaled) writes such as genesis allocations.  It is computed lazily from
the full store contents and invalidated whenever the state mutates outside
``execute_block``, so a ledger that diverges through direct ``apply`` calls
can never hit a stale entry.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

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
    """The world state's store backend, instrumented for the execution cache.

    Reads and writes go straight to the authenticated store's contents dict
    (``KVStore.restore`` refills that dict in place, so the reference holds
    across state transfer).  While a block is being executed for the first
    time, writes are additionally appended to ``record`` (the state delta
    peers will replay).  Writes outside block execution (genesis funding,
    direct ``apply``, unreplicated baselines) go through the authenticated
    store's ``put`` and invalidate the owner's state fingerprint so diverged
    ledgers never share cache entries.
    """

    __slots__ = ("get", "_data", "_authkv", "_owner", "record")

    def __init__(self, authkv: AuthenticatedKVStore, owner: "LedgerService"):
        self._data = authkv.store.data
        self.get = self._data.get
        self._authkv = authkv
        self._owner = owner
        self.record: Optional[List[Tuple[str, Any]]] = None

    def put(self, key: str, value: Any) -> None:
        record = self.record
        if record is not None:
            record.append((key, value))
            self._data[key] = value
        else:
            self._owner._state_fingerprint = None
            self._authkv.put(key, value)


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
        return self._execute_with(operation, evm)

    def _execute_with(self, operation: Operation, evm: EVM) -> OperationResult:
        """Execute one operation through a caller-provided EVM instance."""
        transaction = operation.payload
        if not isinstance(transaction, Transaction):
            return OperationResult(ok=False, error="not a ledger transaction")
        try:
            receipt = apply_transaction(self._world, transaction, evm)
        except InvalidTransaction as exc:
            return OperationResult(ok=False, error=str(exc))
        self.receipts.append(receipt)
        return OperationResult(
            value={
                "success": receipt.success,
                "gas_used": receipt.gas_used,
                "contract_address": receipt.contract_address,
            },
            ok=receipt.success,
            error=receipt.error,
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

    def execute_block(self, sequence: int, operations: Sequence[Operation]) -> Sequence[OperationResult]:
        self._block_number += 1

        authkv = self._authkv
        fingerprint = self._state_fingerprint
        if fingerprint is None:
            # Anchored to the chain digest at computation time, so a
            # fingerprint taken after a restore can never alias one taken
            # at genesis even if the raw contents digests coincide.
            fingerprint = (authkv.contents_digest(), authkv.digest())
            self._state_fingerprint = fingerprint
        state_key = ("ledger", fingerprint, authkv.digest(), self._block_number, sequence)
        cached = execution_cache.lookup(operations, state_key)
        if cached is not None:
            results, receipts, delta, journal = cached
            # Replay the recorded state delta instead of re-interpreting:
            # same puts in the same order, applied directly (the delta is
            # journal-covered, so the fingerprint stays valid), then the
            # recorded journal bookkeeping with no re-hashing.
            authkv.store.replay_delta(delta)
            self.receipts.extend(receipts)
            authkv.replay_block(sequence, results, *journal)
            return results

        # First execution of this block from this state: run the EVM and
        # record the state delta for the peers.
        record: List[Tuple[str, Any]] = []
        self._backend.record = record
        receipts_start = len(self.receipts)
        try:
            evm = EVM(self._world, BlockContext(number=self._block_number))
            results = tuple(self._execute_with(operation, evm) for operation in operations)
        finally:
            self._backend.record = None
        journal = authkv.journal_block(sequence, operations, results)
        execution_cache.store(
            operations,
            state_key,
            (results, tuple(self.receipts[receipts_start:]), (tuple(record), False), journal),
        )
        return results

    def execution_cost(self, operation: Operation) -> float:
        # The cost of an operation is a pure function of the transaction and
        # the cost model; every replica of a cluster (same cost model) charges
        # it for the same shared Operation object, so it is stashed on the
        # instance, guarded by the cost-model identity.
        memo = operation._ledger_cost
        if memo is not None and memo[0] is self._costs:
            return memo[1]
        transaction = operation.payload
        if not isinstance(transaction, Transaction):
            return 5e-6
        gas_estimate = min(transaction.gas_limit, 60_000)
        cost = (
            self._costs.evm_base_execute
            + self._costs.evm_per_gas * gas_estimate
            + self._costs.persist_per_byte * transaction.size_bytes
        )
        object.__setattr__(operation, "_ledger_cost", (self._costs, cost))
        return cost

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
