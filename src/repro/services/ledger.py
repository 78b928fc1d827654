"""Smart-contract ledger: the EVM layered on the authenticated KV store.

This is the topmost layer of Section IV's architecture: ledger operations are
EVM transactions, state (accounts, code, contract storage) lives in the
authenticated key-value store, and execution costs are derived from the gas
each transaction burns (its receipt's ``gas_used``), so the replication
benchmarks see the per-transaction work the block actually did.

The ledger *is* an :class:`AuthenticatedKVStore` whose world state reads and
writes the store's contents, so it runs once and applies everywhere exactly
as the KV store does: "EVM bytecode is deterministic [so] the new state
digest will be equal in all non-faulty replicas" (Section IX).  The first
replica to start a block dry-runs it over the store's overlay and records the
replay entry; every replica prices the block off that entry and applies it
when its execution core finishes.  A block's gas is known only once it has
run, which is why the entry is recorded when a replica *starts* the block:
its price is the gas its receipts burned.  What this class adds is only what
differs from the KV store — how a transaction runs (:meth:`_execute_with`),
what it costs (:meth:`transaction_cost`) and the receipts it leaves.

A block's results and receipts are held by reference: the few distinct
receipts and results a stream of contract calls has are held once per store
(:meth:`_execute_with`), so a replica's ``receipts`` list holds pointers to
the shared receipts, not a receipt object per transaction.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from repro.crypto.costs import CryptoCosts, DEFAULT_COSTS
from repro.errors import InvalidTransaction
from repro.evm.state import WorldState
from repro.evm.transactions import Transaction, TransactionReceipt, apply_transaction
from repro.evm.vm import EVM, BlockContext
from repro.services.authenticated_kv import AuthenticatedKVStore
from repro.services.interface import Operation, OperationResult

_NOT_A_TRANSACTION = OperationResult(ok=False, error="not a ledger transaction")


def ledger_operation(transaction: Transaction, client_id: int = -1, timestamp: int = 0) -> Operation:
    """Wrap an EVM transaction as a replicated-service operation."""
    return Operation(kind="ledger", payload=transaction, client_id=client_id, timestamp=timestamp)


class LedgerService(AuthenticatedKVStore):
    """EVM-executing replicated service with Merkle authentication."""

    def __init__(self, costs: CryptoCosts = DEFAULT_COSTS):
        super().__init__(persist_cost_per_byte=costs.persist_per_byte)
        self._world = WorldState(backend=self._store)
        self._costs = costs
        self.receipts: List[TransactionReceipt] = []
        # One shared receipt per distinct receipt, and one shared result per
        # distinct ``(success, gas_used, contract_address, error)``, that
        # this store ran (like ``_digest_memo``): a stream repeats them.
        self._receipts: Dict[TransactionReceipt, TransactionReceipt] = {}
        self._results: Dict[Tuple, OperationResult] = {}

    @property
    def _block_number(self) -> int:
        """Blocks executed so far: one per block the chain holds, pruned or
        not, so the chain digest implies it."""
        return self._journaled

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
        appending its receipt (if it has one) to ``receipts``; a receipt or
        result seen before is the shared one."""
        transaction = operation.payload
        if not isinstance(transaction, Transaction):
            return _NOT_A_TRANSACTION
        try:
            receipt = apply_transaction(self._world, transaction, evm)
        except InvalidTransaction as exc:
            return OperationResult(ok=False, error=str(exc))
        receipts.append(self._receipts.setdefault(receipt, receipt))
        outcome = (receipt.success, receipt.gas_used, receipt.contract_address, receipt.error)
        result = self._results.get(outcome)
        if result is None:
            result = self._results[outcome] = OperationResult(
                value={
                    "success": receipt.success,
                    "gas_used": receipt.gas_used,
                    "contract_address": receipt.contract_address,
                },
                ok=receipt.success,
                error=receipt.error,
            )
        return result

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

    def execute_block(self, sequence: int, operations: Sequence[Operation]) -> Sequence[OperationResult]:
        """Apply the block's replay entry as the KV store does, keeping its
        receipts (the shared ones)."""
        entry = self._entry(sequence, operations)
        self.receipts.extend(entry[3])
        return self._apply(sequence, entry)

    def snapshot(self) -> Any:
        """The store's snapshot plus the receipts (the shared ones, in a list
        of the snapshot's own)."""
        snapshot = super().snapshot()
        snapshot["receipts"] = list(self.receipts)
        return snapshot

    def restore(self, snapshot: Any) -> None:
        super().restore(snapshot)
        self.receipts = list(snapshot["receipts"])

    def _run_block(self, operations: Sequence[Operation]) -> Tuple:
        receipts: List[TransactionReceipt] = []
        evm = EVM(self._world, BlockContext(number=self._block_number + 1))
        results = tuple(self._execute_with(operation, evm, receipts) for operation in operations)
        return results, sum(map(self.transaction_cost, operations, results)), tuple(receipts)
