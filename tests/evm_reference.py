"""The naive mini-EVM: the reference the pre-decoded interpreter is tested against.

``NaiveEVM`` is the original fetch-decode-execute loop over raw bytes.  It
reuses :class:`repro.evm.vm.EVM`'s frame, memory, ``CALL`` and address helpers
but has its own loop, opcode semantics and JUMPDEST scan, so a decoder or
handler bug in ``src`` does not carry over into it;
``tests/test_evm_properties.py`` and ``tests/test_evm_vm.py`` run both engines
on the same programs and require identical results, gas, logs and state.

The JUMPDEST analysis here is the real EVM's linear scan, written apart from
:func:`repro.evm.predecode.predecode` for the same reason: a ``0x5b`` byte
inside PUSH immediate data is not a jump target.
"""

from __future__ import annotations

from typing import List, Optional

from repro.crypto.hashing import sha256_int
from repro.errors import EVMError, OutOfGas
from repro.evm.opcodes import IMMEDIATE_WIDTHS, JUMPDEST_BYTE, OPCODES, Op
from repro.evm.predecode import MAX_STEPS, WORD
from repro.evm.vm import MAX_CALL_DEPTH, EVM, ExecutionResult, Message, _Frame


def instruction_offsets(code: bytes) -> List[int]:
    """Byte offsets of instruction boundaries: PUSH immediates are skipped,
    unknown bytes advance by one."""
    offsets: List[int] = []
    pc = 0
    while pc < len(code):
        offsets.append(pc)
        pc += 1 + IMMEDIATE_WIDTHS[code[pc]]
    return offsets


def compute_valid_jumpdests(code: bytes) -> frozenset:
    """Valid JUMPDEST byte offsets: ``0x5b`` bytes *at instruction boundaries*."""
    valid = set()
    pc = 0
    while pc < len(code):
        if code[pc] == JUMPDEST_BYTE:
            valid.add(pc)
        pc += 1 + IMMEDIATE_WIDTHS[code[pc]]
    return frozenset(valid)


def _to_signed(value: int) -> int:
    return value - WORD if value >= WORD // 2 else value


class _NaiveFrame(_Frame):
    """A frame that carries its code's JUMPDEST set."""

    __slots__ = ("valid_jumpdests",)


class NaiveEVM(EVM):
    """The byte-at-a-time reference engine (nested ``CALL``s run naive too)."""

    def execute(self, message: Message, code: Optional[bytes] = None) -> ExecutionResult:
        if message.depth > MAX_CALL_DEPTH:
            return ExecutionResult(success=False, error="call depth exceeded", gas_used=message.gas)
        if message.origin is None:
            message.origin = message.sender
        run_code = code if code is not None else self.state.get_code(message.to)
        if not run_code:
            return ExecutionResult(success=True, gas_used=0)
        frame = _NaiveFrame(run_code, message)
        frame.valid_jumpdests = compute_valid_jumpdests(run_code)
        try:
            return self._run(frame)
        except OutOfGas as exc:
            return ExecutionResult(success=False, error=str(exc), gas_used=message.gas, logs=frame.logs)
        except EVMError as exc:
            gas_used = message.gas - frame.gas_remaining
            return ExecutionResult(success=False, error=str(exc), gas_used=gas_used, logs=frame.logs)

    def _run(self, frame: _NaiveFrame) -> ExecutionResult:
        code = frame.code
        msg = frame.message
        steps = 0
        while frame.pc < len(code):
            steps += 1
            if steps > MAX_STEPS:
                raise EVMError("step limit exceeded")
            byte = code[frame.pc]
            info = OPCODES.get(byte)
            if info is None:
                raise EVMError(f"invalid opcode 0x{byte:02x} at pc {frame.pc}")
            frame.charge(info.gas)
            op = info.op
            frame.pc += 1

            # -- control flow ------------------------------------------
            if op is Op.STOP:
                return self._finish(frame, b"", True)
            if op is Op.RETURN:
                offset, length = frame.pop(), frame.pop()
                return self._finish(frame, frame.mslice(offset, length), True)
            if op is Op.REVERT:
                offset, length = frame.pop(), frame.pop()
                return self._finish(frame, frame.mslice(offset, length), False, error="revert")
            if op is Op.JUMP:
                frame.pc = self._jump_target(frame, frame.pop())
                continue
            if op is Op.JUMPI:
                target, condition = frame.pop(), frame.pop()
                if condition:
                    frame.pc = self._jump_target(frame, target)
                continue
            if op is Op.JUMPDEST:
                continue

            # -- pushes / dups / swaps ----------------------------------
            if info.immediate_bytes:
                value = int.from_bytes(code[frame.pc : frame.pc + info.immediate_bytes], "big")
                frame.pc += info.immediate_bytes
                frame.push(value)
                continue
            if Op.DUP1 <= op <= Op.DUP6:
                depth = op - Op.DUP1 + 1
                if len(frame.stack) < depth:
                    raise EVMError("stack underflow in DUP")
                frame.push(frame.stack[-depth])
                continue
            if Op.SWAP1 <= op <= Op.SWAP4:
                depth = op - Op.SWAP1 + 1
                if len(frame.stack) < depth + 1:
                    raise EVMError("stack underflow in SWAP")
                frame.stack[-1], frame.stack[-1 - depth] = frame.stack[-1 - depth], frame.stack[-1]
                continue

            self._execute_simple(op, frame, msg)
        return self._finish(frame, b"", True)

    @staticmethod
    def _jump_target(frame: _NaiveFrame, target: int) -> int:
        if target not in frame.valid_jumpdests:
            raise EVMError(f"invalid jump target {target}")
        return target

    def _execute_simple(self, op: Op, frame: _NaiveFrame, msg: Message) -> None:
        pop = frame.pop
        push = frame.push
        if op is Op.ADD:
            push(pop() + pop())
        elif op is Op.MUL:
            push(pop() * pop())
        elif op is Op.SUB:
            a, b = pop(), pop()
            push(a - b)
        elif op is Op.DIV:
            a, b = pop(), pop()
            push(0 if b == 0 else a // b)
        elif op is Op.MOD:
            a, b = pop(), pop()
            push(0 if b == 0 else a % b)
        elif op is Op.ADDMOD:
            a, b, n = pop(), pop(), pop()
            push(0 if n == 0 else (a + b) % n)
        elif op is Op.MULMOD:
            a, b, n = pop(), pop(), pop()
            push(0 if n == 0 else (a * b) % n)
        elif op is Op.EXP:
            a, b = pop(), pop()
            push(pow(a, b, WORD))
        elif op is Op.LT:
            a, b = pop(), pop()
            push(1 if a < b else 0)
        elif op is Op.GT:
            a, b = pop(), pop()
            push(1 if a > b else 0)
        elif op is Op.SLT:
            a, b = pop(), pop()
            push(1 if _to_signed(a) < _to_signed(b) else 0)
        elif op is Op.SGT:
            a, b = pop(), pop()
            push(1 if _to_signed(a) > _to_signed(b) else 0)
        elif op is Op.EQ:
            push(1 if pop() == pop() else 0)
        elif op is Op.ISZERO:
            push(1 if pop() == 0 else 0)
        elif op is Op.AND:
            push(pop() & pop())
        elif op is Op.OR:
            push(pop() | pop())
        elif op is Op.XOR:
            push(pop() ^ pop())
        elif op is Op.NOT:
            push(~pop() % WORD)
        elif op is Op.BYTE:
            index, value = pop(), pop()
            push((value >> (8 * (31 - index))) & 0xFF if index < 32 else 0)
        elif op is Op.SHL:
            shift, value = pop(), pop()
            push(0 if shift >= 256 else (value << shift) % WORD)
        elif op is Op.SHR:
            shift, value = pop(), pop()
            push(0 if shift >= 256 else value >> shift)
        elif op is Op.SHA3:
            offset, length = pop(), pop()
            push(sha256_int("evm-sha3", frame.mslice(offset, length)) % WORD)
        elif op is Op.ADDRESS:
            push(self._address_to_word(msg.to))
        elif op is Op.BALANCE:
            address = self._word_to_address(pop())
            push(self.state.get_balance(address))
        elif op is Op.ORIGIN:
            push(self._address_to_word(msg.origin or msg.sender))
        elif op is Op.CALLER:
            push(self._address_to_word(msg.sender))
        elif op is Op.CALLVALUE:
            push(msg.value)
        elif op is Op.CALLDATALOAD:
            offset = pop()
            data = msg.data[offset : offset + 32]
            push(int.from_bytes(data.ljust(32, b"\x00"), "big"))
        elif op is Op.CALLDATASIZE:
            push(len(msg.data))
        elif op is Op.CODESIZE:
            push(len(frame.code))
        elif op is Op.GASPRICE:
            push(1)
        elif op is Op.BLOCKHASH:
            push(sha256_int("blockhash", pop()) % WORD)
        elif op is Op.COINBASE:
            push(self._address_to_word(self.block.coinbase))
        elif op is Op.TIMESTAMP:
            push(self.block.timestamp)
        elif op is Op.NUMBER:
            push(self.block.number)
        elif op is Op.GASLIMIT:
            push(self.block.gas_limit)
        elif op is Op.POP:
            pop()
        elif op is Op.MLOAD:
            push(frame.mload(pop()))
        elif op is Op.MSTORE:
            offset, value = pop(), pop()
            frame.mstore(offset, value)
        elif op is Op.MSTORE8:
            offset, value = pop(), pop()
            frame.mstore8(offset, value)
        elif op is Op.SLOAD:
            push(self.state.storage_load(msg.to, pop()))
        elif op is Op.SSTORE:
            slot, value = pop(), pop()
            self.state.storage_store(msg.to, slot, value)
        elif op is Op.PC:
            push(frame.pc - 1)
        elif op is Op.MSIZE:
            push(len(frame.memory))
        elif op is Op.GAS:
            push(frame.gas_remaining)
        elif op is Op.LOG0:
            offset, length = pop(), pop()
            frame.logs.append((msg.to, (), frame.mslice(offset, length)))
        elif op is Op.LOG1:
            offset, length, topic = pop(), pop(), pop()
            frame.logs.append((msg.to, (topic,), frame.mslice(offset, length)))
        elif op is Op.CALL:
            self._do_call(frame, msg)
        elif op is Op.SELFDESTRUCT:
            beneficiary = self._word_to_address(pop())
            balance = self.state.get_balance(msg.to)
            self.state.sub_balance(msg.to, balance)
            self.state.add_balance(beneficiary, balance)
            self.state.set_code(msg.to, b"")
            frame.pc = len(frame.code)
        else:
            raise EVMError(f"unhandled opcode {op.name}")
