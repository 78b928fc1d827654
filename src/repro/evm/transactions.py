"""Ledger transaction types: contract creation and contract execution.

Section IV: "An interface for modeling the two main Ethereum transaction types
(contract creation and contract execution) as operations in our replicated
service."  A third trivial type, plain value transfer, is included because the
synthetic workload (like the real Ethereum trace) is dominated by transfers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import InvalidTransaction
from repro.evm.state import WorldState
from repro.evm.vm import EVM, ExecutionResult, Message
from repro.records import frozen_record

TX_CREATE = "create"
TX_CALL = "call"
TX_TRANSFER = "transfer"


@frozen_record
class Transaction:
    """One ledger transaction.

    ``kind`` is one of ``create`` (deploy ``code``), ``call`` (invoke contract
    ``to`` with ``data``) or ``transfer`` (move ``value`` to ``to``).
    """

    kind: str
    sender: str
    to: Optional[str] = None
    value: int = 0
    data: bytes = b""
    code: bytes = b""
    gas_limit: int = 1_000_000
    # Computed once at construction: the same Transaction object is sized by
    # every replica that prices/journals it (hot path at large n).
    size_bytes: int = field(init=False, compare=False, repr=False, default=0)

    def __post_init__(self):
        if self.kind not in (TX_CREATE, TX_CALL, TX_TRANSFER):
            raise InvalidTransaction(f"unknown transaction kind {self.kind!r}")
        if self.kind in (TX_CALL, TX_TRANSFER) and not self.to:
            raise InvalidTransaction(f"{self.kind} transaction requires a destination")
        if self.kind == TX_CREATE and not self.code:
            raise InvalidTransaction("create transaction requires code")
        object.__setattr__(self, "size_bytes", 110 + len(self.data) + len(self.code))

    @staticmethod
    def create(sender: str, code: bytes, value: int = 0, gas_limit: int = 1_000_000) -> "Transaction":
        return Transaction(kind=TX_CREATE, sender=sender, code=code, value=value, gas_limit=gas_limit)

    @staticmethod
    def call(
        sender: str, to: str, data: bytes = b"", value: int = 0, gas_limit: int = 1_000_000
    ) -> "Transaction":
        return Transaction(kind=TX_CALL, sender=sender, to=to, data=data, value=value, gas_limit=gas_limit)

    @staticmethod
    def transfer(sender: str, to: str, value: int) -> "Transaction":
        return Transaction(kind=TX_TRANSFER, sender=sender, to=to, value=value, gas_limit=21_000)


@dataclass(frozen=True)
class TransactionReceipt:
    """Outcome of applying one transaction."""

    success: bool
    gas_used: int
    contract_address: Optional[str] = None
    return_data: bytes = b""
    error: Optional[str] = None
    logs: tuple = ()


def apply_transaction(state: WorldState, transaction: Transaction, evm: Optional[EVM] = None) -> TransactionReceipt:
    """Apply one transaction to the world state and return its receipt."""
    vm = evm if evm is not None else EVM(state)
    state.increment_nonce(transaction.sender)

    if transaction.kind == TX_TRANSFER:
        try:
            state.sub_balance(transaction.sender, transaction.value)
        except Exception as exc:  # noqa: BLE001 - converted to a failed receipt
            return TransactionReceipt(success=False, gas_used=21_000, error=str(exc))
        state.add_balance(transaction.to, transaction.value)
        return TransactionReceipt(success=True, gas_used=21_000)

    if transaction.kind == TX_CREATE:
        address = state.derive_contract_address(transaction.sender, state.get_nonce(transaction.sender))
        # The real EVM runs init code whose return data becomes the runtime
        # code.  The mini-EVM deploys ``transaction.code`` verbatim (no
        # CODECOPY-based constructor support); ``transaction.data`` may carry
        # an optional initialisation call executed right after deployment.
        state.set_code(address, transaction.code)
        if transaction.value:
            state.sub_balance(transaction.sender, transaction.value)
            state.add_balance(address, transaction.value)
        init_result = ExecutionResult(success=True)
        if transaction.data:
            init_message = Message(
                sender=transaction.sender,
                to=address,
                value=0,
                data=transaction.data,
                gas=transaction.gas_limit,
            )
            init_result = vm.execute(init_message)
        creation_gas = 32_000 + 200 * len(transaction.code)
        return TransactionReceipt(
            success=init_result.success,
            gas_used=init_result.gas_used + creation_gas,
            contract_address=address,
            return_data=init_result.return_data,
            error=init_result.error,
            logs=tuple(init_result.logs),
        )

    # TX_CALL
    if transaction.value:
        try:
            state.sub_balance(transaction.sender, transaction.value)
        except Exception as exc:  # noqa: BLE001 - converted to a failed receipt
            return TransactionReceipt(success=False, gas_used=21_000, error=str(exc))
        state.add_balance(transaction.to, transaction.value)
    message = Message(
        sender=transaction.sender,
        to=transaction.to,
        value=transaction.value,
        data=transaction.data,
        gas=transaction.gas_limit,
    )
    result = vm.execute(message)
    return TransactionReceipt(
        success=result.success,
        gas_used=result.gas_used + 21_000,
        return_data=result.return_data,
        error=result.error,
        logs=tuple(result.logs),
    )
