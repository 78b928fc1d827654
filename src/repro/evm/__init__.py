"""A from-scratch mini-EVM used as SBFT's smart-contract engine.

The paper layers an Ethereum Virtual Machine on top of the authenticated
key-value store (Section IV, VIII) and replays 500k real Ethereum transactions
through it.  Real traces and cpp-ethereum are not available offline, so this
package implements a deterministic stack-based EVM subset — enough to run
realistic token/ledger contracts — plus the two transaction types the paper
models (contract creation and contract execution).  The synthetic workload in
:mod:`repro.workloads.ethereum_workload` exercises it with a mix calibrated to
the paper's description (~5000 creations among 500k transactions).
"""

from repro.evm.opcodes import Op, OPCODES
from repro.evm.assembler import assemble
from repro.evm.vm import EVM, ExecutionResult, Message
from repro.evm.state import WorldState
from repro.evm.transactions import Transaction, TransactionReceipt, apply_transaction
from repro.evm.contracts import counter_contract, token_contract, storage_contract

__all__ = [
    "Op",
    "OPCODES",
    "assemble",
    "EVM",
    "ExecutionResult",
    "Message",
    "WorldState",
    "Transaction",
    "TransactionReceipt",
    "apply_transaction",
    "counter_contract",
    "token_contract",
    "storage_contract",
]
