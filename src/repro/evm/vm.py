"""The mini-EVM interpreter.

A 256-bit word stack, byte-addressed memory, gas accounting, contract storage
through :class:`~repro.evm.state.WorldState`, and nested ``CALL``s with
bounded depth.  Execution is fully deterministic, which is what the
replication layer requires ("the fact that EVM bytecode is deterministic
ensures that the new state digest will be equal in all non-faulty replicas",
Section IV).

Execution runs over the pre-decoded instruction stream of
:mod:`repro.evm.predecode`: PUSH immediates parsed once per code blob, direct
handler references, O(1) jump resolution against the *instruction-boundary*
JUMPDEST set (a ``0x5b`` byte inside PUSH immediate data is not a valid jump
target).  The naive fetch-decode-execute loop over raw bytes it is tested
against lives with its tests (``tests/evm_reference.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.errors import EVMError, OutOfGas
from repro.evm.predecode import MAX_STACK, WORD, predecode, run_decoded
from repro.evm.state import WorldState

MAX_CALL_DEPTH = 64
#: Per-frame memory bound.  The Frontier gas model here does not charge for
#: memory expansion, so without a cap a single ``MLOAD`` with a 2^200 offset
#: would ask Python for an impossible allocation and crash the *host* process
#: (found by the differential fuzzer).  Exceeding the cap is a deterministic
#: in-VM failure instead.
MAX_MEMORY = 1 << 24


@dataclass
class Message:
    """A call frame input: who calls what, with which data and gas."""

    sender: str
    to: str
    value: int = 0
    data: bytes = b""
    gas: int = 1_000_000
    origin: Optional[str] = None
    depth: int = 0


@dataclass
class ExecutionResult:
    """Outcome of running one message."""

    success: bool
    return_data: bytes = b""
    gas_used: int = 0
    error: Optional[str] = None
    logs: List[tuple] = field(default_factory=list)


@dataclass
class BlockContext:
    """Block-level environment values exposed to contracts."""

    number: int = 0
    timestamp: int = 0
    coinbase: str = "0x" + "00" * 20
    gas_limit: int = 10_000_000


class _Frame:
    """One execution frame (stack, memory, program counter, gas)."""

    __slots__ = (
        "code",
        "message",
        "stack",
        "memory",
        "pc",
        "gas_remaining",
        "logs",
        "halt",
        "program",
    )

    def __init__(self, code: bytes, message: Message):
        self.code = code
        self.message = message
        self.stack: List[int] = []
        self.memory = bytearray()
        self.pc = 0
        self.gas_remaining = message.gas
        self.logs: List[tuple] = []
        # The outcome of a halting instruction and the pre-decoded program.
        self.halt: Optional[Tuple[bytes, bool, Optional[str]]] = None
        self.program = None

    # -- stack ----------------------------------------------------------
    def push(self, value: int) -> None:
        if len(self.stack) >= MAX_STACK:
            raise EVMError("stack overflow")
        self.stack.append(value % WORD)

    def pop(self) -> int:
        if not self.stack:
            raise EVMError("stack underflow")
        return self.stack.pop()

    # -- memory ---------------------------------------------------------
    def _ensure_memory(self, offset: int, length: int) -> None:
        end = offset + length
        if end > MAX_MEMORY:
            raise EVMError(f"memory limit exceeded (need {end} bytes)")
        if end > len(self.memory):
            self.memory.extend(b"\x00" * (end - len(self.memory)))

    def mload(self, offset: int) -> int:
        self._ensure_memory(offset, 32)
        return int.from_bytes(self.memory[offset : offset + 32], "big")

    def mstore(self, offset: int, value: int) -> None:
        self._ensure_memory(offset, 32)
        self.memory[offset : offset + 32] = (value % WORD).to_bytes(32, "big")

    def mstore8(self, offset: int, value: int) -> None:
        self._ensure_memory(offset, 1)
        self.memory[offset] = value & 0xFF

    def mslice(self, offset: int, length: int) -> bytes:
        self._ensure_memory(offset, length)
        return bytes(self.memory[offset : offset + length])

    # -- gas ------------------------------------------------------------
    def charge(self, amount: int) -> None:
        if amount > self.gas_remaining:
            raise OutOfGas(f"out of gas (needed {amount}, had {self.gas_remaining})")
        self.gas_remaining -= amount


class EVM:
    """The interpreter.  One instance can execute many messages."""

    def __init__(self, state: WorldState, block: Optional[BlockContext] = None):
        self.state = state
        self.block = block or BlockContext()

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------
    def execute(self, message: Message, code: Optional[bytes] = None) -> ExecutionResult:
        """Run ``code`` (or the callee's stored code) in the context of ``message``."""
        if message.depth > MAX_CALL_DEPTH:
            return ExecutionResult(success=False, error="call depth exceeded", gas_used=message.gas)
        if message.origin is None:
            message.origin = message.sender
        run_code = code if code is not None else self.state.get_code(message.to)
        if not run_code:
            # Plain value transfer to an account with no code.
            return ExecutionResult(success=True, gas_used=0)
        frame = _Frame(run_code, message)
        try:
            frame.program = predecode(run_code)
            run_decoded(self, frame)
            halt = frame.halt
            if halt is None:
                result = self._finish(frame, b"", True)
            else:
                result = self._finish(frame, halt[0], halt[1], error=halt[2])
        except OutOfGas as exc:
            return ExecutionResult(success=False, error=str(exc), gas_used=message.gas, logs=frame.logs)
        except EVMError as exc:
            gas_used = message.gas - frame.gas_remaining
            return ExecutionResult(success=False, error=str(exc), gas_used=gas_used, logs=frame.logs)
        return result

    def _finish(
        self, frame: _Frame, return_data: bytes, success: bool, error: Optional[str] = None
    ) -> ExecutionResult:
        return ExecutionResult(
            success=success,
            return_data=return_data,
            gas_used=frame.message.gas - frame.gas_remaining,
            error=error,
            logs=list(frame.logs),
        )

    def _do_call(self, frame: _Frame, msg: Message) -> None:
        gas = frame.pop()
        to_word = frame.pop()
        value = frame.pop()
        in_offset, in_length = frame.pop(), frame.pop()
        out_offset, out_length = frame.pop(), frame.pop()
        to = self._word_to_address(to_word)
        data = frame.mslice(in_offset, in_length)
        if value:
            self.state.sub_balance(msg.to, value)
            self.state.add_balance(to, value)
        child = Message(
            sender=msg.to,
            to=to,
            value=value,
            data=data,
            gas=min(gas, frame.gas_remaining),
            origin=msg.origin,
            depth=msg.depth + 1,
        )
        result = self.execute(child)
        frame.charge(result.gas_used)
        frame.logs.extend(result.logs)
        if out_length and result.return_data:
            frame._ensure_memory(out_offset, out_length)
            frame.memory[out_offset : out_offset + out_length] = result.return_data[:out_length].ljust(
                out_length, b"\x00"
            )
        frame.push(1 if result.success else 0)

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _address_to_word(address: str) -> int:
        return int(address, 16) if address else 0

    @staticmethod
    def _word_to_address(word: int) -> str:
        return "0x" + format(word, "x").rjust(40, "0")[-40:]
