"""Pre-decoded instruction streams for the mini-EVM.

A naive interpreter (the reference in ``tests/evm_reference.py``) re-decodes
raw bytecode on every step: a dict lookup per byte, an immediate re-parse per PUSH, and a ~40-branch
``if``/``elif`` chain per simple opcode.  EVM bytecode is immutable once
deployed, so all of that work can be hoisted into a one-time pre-decode pass
per code blob:

* every instruction becomes a ``(handler, gas, operand, byte_pc)`` tuple with
  the PUSH immediate already parsed and a *direct* handler reference (no
  opcode dispatch at run time),
* the set of **valid** JUMPDEST byte offsets is computed by walking
  instruction boundaries — a ``0x5b`` byte inside PUSH immediate data is data,
  not a jump target (this also fixes the naive loop's historical bug of
  accepting any ``0x5b`` byte),
* jump targets resolve through a byte-offset -> instruction-index map so JUMP
  and JUMPI are a single dict probe.

One stack discipline serves every opcode that only pops its arguments and
pushes at most one result: its handler is the one for the opcode table's
``(pops, pushes)`` shape, which does the underflow and overflow checks, and
its operand is the opcode's operation from ``_OPERATIONS``.  Only opcodes
that move control, read the instruction or halt (``_OWN``) have a handler of
their own, so a new stack-shaped opcode is one table row and one operation.

``predecode`` is memoized per code blob (``functools.lru_cache``; no hashing
inside, so it never shows in a run's digest count): a contract deployed once
per cluster is decoded once per *process*, not once per replica per call.

The decoded semantics are step-for-step identical to the (fixed) naive loop:
same gas charges, same step counting, same error strings, same result bytes.
``tests/test_evm_properties.py`` enforces this differentially with random
assembler-generated and raw-byte programs.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, List

from repro.crypto.hashing import sha256_int
from repro.errors import EVMError, OutOfGas
from repro.evm.opcodes import IMMEDIATE_WIDTHS, JUMPDEST_BYTE, OPCODES, Op

# Execution limits: they are part of the observable semantics, so the naive
# reference engine imports these same definitions.
WORD = 2**256
_MASK = WORD - 1
MAX_STACK = 1024
MAX_STEPS = 100_000

#: Instruction index returned by halting handlers; larger than any real
#: program (``len(instructions) <= len(code)``), so the run loop exits.
_END = 1 << 60


class DecodedProgram:
    """One pre-decoded code blob: instruction stream plus jump metadata."""

    __slots__ = ("code", "instructions", "jumpdest_index", "valid_jumpdests")

    def __init__(
        self,
        code: bytes,
        instructions: List[tuple],
        jumpdest_index: Dict[int, int],
    ):
        self.code = code
        self.instructions = instructions
        self.jumpdest_index = jumpdest_index
        self.valid_jumpdests = frozenset(jumpdest_index)


@lru_cache(maxsize=1 << 10)
def predecode(code: bytes) -> DecodedProgram:
    """Decode ``code`` once (memoized by the blob itself: bytes hashing is the
    code-hash the memo needs) into a :class:`DecodedProgram`."""
    return _decode(code)


def _decode(code: bytes) -> DecodedProgram:
    instructions: List[tuple] = []
    jumpdest_index: Dict[int, int] = {}
    dispatch = _DISPATCH
    pc = 0
    length = len(code)
    while pc < length:
        byte = code[pc]
        entry = dispatch[byte]
        if entry is None:
            # Reached only if execution actually gets here; gas 0 so nothing
            # is charged before the error (matching the naive loop's
            # lookup-before-charge order).
            message = f"invalid opcode 0x{byte:02x} at pc {pc}"
            instructions.append((_h_invalid, 0, message, pc))
            pc += 1
            continue
        handler, gas, operand = entry
        width = IMMEDIATE_WIDTHS[byte]
        if width:
            operand = int.from_bytes(code[pc + 1 : pc + 1 + width], "big")
        elif byte == JUMPDEST_BYTE:
            jumpdest_index[pc] = len(instructions)
        instructions.append((handler, gas, operand, pc))
        pc += 1 + width
    return DecodedProgram(code, instructions, jumpdest_index)


def run_decoded(vm, frame) -> None:
    """Execute ``frame`` over its pre-decoded program.

    On return the frame either fell off the end of the code or stored its
    outcome in ``frame.halt``; errors raise exactly like the naive loop
    (``OutOfGas`` / ``EVMError`` with identical messages).
    """
    instructions = frame.program.instructions
    count = len(instructions)
    steps = 0
    ip = 0
    while ip < count:
        steps += 1
        if steps > MAX_STEPS:
            raise EVMError("step limit exceeded")
        inst = instructions[ip]
        gas = inst[1]
        remaining = frame.gas_remaining
        if gas > remaining:
            raise OutOfGas(f"out of gas (needed {gas}, had {remaining})")
        frame.gas_remaining = remaining - gas
        ip = inst[0](vm, frame, inst, ip)


# ----------------------------------------------------------------------
# Handlers.  Signature: handler(vm, frame, inst, ip) -> next instruction
# index.  ``inst`` is ``(handler, gas, operand, byte_pc)``.  Stack values are
# always canonical (in ``[0, WORD)``), so results only need masking where the
# operation can leave that range — everywhere else the naive loop's ``% WORD``
# is a no-op the decoded handlers skip.
# ----------------------------------------------------------------------

def _underflow() -> EVMError:
    return EVMError("stack underflow")


# -- one handler per stack shape (pops, pushes); the operand is the
# -- opcode's operation, ``fn(vm, frame, *popped) -> pushed word or None``

def _h_0_1(vm, frame, inst, ip):
    # What is pushed from nothing comes from outside the stack (the message,
    # the block, the frame), so it is masked into a word here.
    value = inst[2](vm, frame)
    stack = frame.stack
    if len(stack) >= MAX_STACK:
        raise EVMError("stack overflow")
    stack.append(value & _MASK)
    return ip + 1


def _h_1_0(vm, frame, inst, ip):
    try:
        a = frame.stack.pop()
    except IndexError:
        raise _underflow() from None
    inst[2](vm, frame, a)
    return ip + 1


def _h_1_1(vm, frame, inst, ip):
    stack = frame.stack
    try:
        a = stack.pop()
    except IndexError:
        raise _underflow() from None
    stack.append(inst[2](vm, frame, a))
    return ip + 1


def _h_2_0(vm, frame, inst, ip):
    stack = frame.stack
    try:
        a = stack.pop()
        b = stack.pop()
    except IndexError:
        raise _underflow() from None
    inst[2](vm, frame, a, b)
    return ip + 1


def _h_2_1(vm, frame, inst, ip):
    stack = frame.stack
    try:
        a = stack.pop()
        b = stack.pop()
    except IndexError:
        raise _underflow() from None
    stack.append(inst[2](vm, frame, a, b))
    return ip + 1


def _h_3_0(vm, frame, inst, ip):
    stack = frame.stack
    try:
        a = stack.pop()
        b = stack.pop()
        c = stack.pop()
    except IndexError:
        raise _underflow() from None
    inst[2](vm, frame, a, b, c)
    return ip + 1


def _h_3_1(vm, frame, inst, ip):
    stack = frame.stack
    try:
        a = stack.pop()
        b = stack.pop()
        c = stack.pop()
    except IndexError:
        raise _underflow() from None
    stack.append(inst[2](vm, frame, a, b, c))
    return ip + 1


_SHAPES = {
    (0, 1): _h_0_1,
    (1, 0): _h_1_0,
    (1, 1): _h_1_1,
    (2, 0): _h_2_0,
    (2, 1): _h_2_1,
    (3, 0): _h_3_0,
    (3, 1): _h_3_1,
}


# -- opcodes with a handler of their own --------------------------------

def _h_invalid(vm, frame, inst, ip):
    raise EVMError(inst[2])


def _h_push(vm, frame, inst, ip):
    stack = frame.stack
    if len(stack) >= MAX_STACK:
        raise EVMError("stack overflow")
    stack.append(inst[2])
    return ip + 1


def _h_jumpdest(vm, frame, inst, ip):
    return ip + 1


def _h_dup(vm, frame, inst, ip):
    stack = frame.stack
    depth = inst[2]
    if len(stack) < depth:
        raise EVMError("stack underflow in DUP")
    if len(stack) >= MAX_STACK:
        raise EVMError("stack overflow")
    stack.append(stack[-depth])
    return ip + 1


def _h_swap(vm, frame, inst, ip):
    stack = frame.stack
    depth = inst[2]
    if len(stack) < depth + 1:
        raise EVMError("stack underflow in SWAP")
    stack[-1], stack[-1 - depth] = stack[-1 - depth], stack[-1]
    return ip + 1


def _h_stop(vm, frame, inst, ip):
    frame.halt = (b"", True, None)
    return _END


def _h_return(vm, frame, inst, ip):
    """RETURN and REVERT: the operand is the halt's ``(success, error)``."""
    stack = frame.stack
    try:
        offset = stack.pop()
        length = stack.pop()
    except IndexError:
        raise _underflow() from None
    frame.halt = (frame.mslice(offset, length), *inst[2])
    return _END


def _h_jump(vm, frame, inst, ip):
    try:
        target = frame.stack.pop()
    except IndexError:
        raise _underflow() from None
    index = frame.program.jumpdest_index.get(target)
    if index is None:
        raise EVMError(f"invalid jump target {target}")
    return index


def _h_jumpi(vm, frame, inst, ip):
    stack = frame.stack
    try:
        target = stack.pop()
        condition = stack.pop()
    except IndexError:
        raise _underflow() from None
    if condition:
        index = frame.program.jumpdest_index.get(target)
        if index is None:
            raise EVMError(f"invalid jump target {target}")
        return index
    return ip + 1


def _h_pc(vm, frame, inst, ip):
    stack = frame.stack
    if len(stack) >= MAX_STACK:
        raise EVMError("stack overflow")
    stack.append(inst[3])
    return ip + 1


def _h_call(vm, frame, inst, ip):
    vm._do_call(frame, frame.message)
    return ip + 1


def _h_selfdestruct(vm, frame, inst, ip):
    stack = frame.stack
    try:
        beneficiary_word = stack.pop()
    except IndexError:
        raise _underflow() from None
    state = vm.state
    to = frame.message.to
    beneficiary = vm._word_to_address(beneficiary_word)
    balance = state.get_balance(to)
    state.sub_balance(to, balance)
    state.add_balance(beneficiary, balance)
    state.set_code(to, b"")
    return _END


#: ``op -> (handler, operand)``; a PUSH's operand is its immediate, filled
#: in by the decoder.
_OWN: Dict[Op, tuple] = {
    Op.STOP: (_h_stop, None),
    Op.JUMP: (_h_jump, None),
    Op.JUMPI: (_h_jumpi, None),
    Op.PC: (_h_pc, None),
    Op.JUMPDEST: (_h_jumpdest, None),
    Op.CALL: (_h_call, None),
    Op.RETURN: (_h_return, (True, None)),
    Op.REVERT: (_h_return, (False, "revert")),
    Op.SELFDESTRUCT: (_h_selfdestruct, None),
    **{info.op: (_h_push, None) for info in OPCODES.values() if info.immediate_bytes},
    **{op: (_h_dup, op - Op.DUP1 + 1) for op in Op if Op.DUP1 <= op <= Op.DUP6},
    **{op: (_h_swap, op - Op.SWAP1 + 1) for op in Op if Op.SWAP1 <= op <= Op.SWAP4},
}


# -- operations of the stack-shaped opcodes ------------------------------

def _to_signed(value: int) -> int:
    return value - WORD if value >= WORD // 2 else value


_OPERATIONS: Dict[Op, Callable] = {
    # arithmetic
    Op.ADD: lambda vm, frame, a, b: (a + b) & _MASK,
    Op.MUL: lambda vm, frame, a, b: (a * b) & _MASK,
    Op.SUB: lambda vm, frame, a, b: (a - b) & _MASK,
    Op.DIV: lambda vm, frame, a, b: 0 if b == 0 else a // b,
    Op.MOD: lambda vm, frame, a, b: 0 if b == 0 else a % b,
    Op.ADDMOD: lambda vm, frame, a, b, n: 0 if n == 0 else (a + b) % n,
    Op.MULMOD: lambda vm, frame, a, b, n: 0 if n == 0 else (a * b) % n,
    Op.EXP: lambda vm, frame, a, b: pow(a, b, WORD),
    # comparisons
    Op.LT: lambda vm, frame, a, b: 1 if a < b else 0,
    Op.GT: lambda vm, frame, a, b: 1 if a > b else 0,
    Op.SLT: lambda vm, frame, a, b: 1 if _to_signed(a) < _to_signed(b) else 0,
    Op.SGT: lambda vm, frame, a, b: 1 if _to_signed(a) > _to_signed(b) else 0,
    Op.EQ: lambda vm, frame, a, b: 1 if a == b else 0,
    Op.ISZERO: lambda vm, frame, a: 1 if a == 0 else 0,
    # bitwise
    Op.AND: lambda vm, frame, a, b: a & b,
    Op.OR: lambda vm, frame, a, b: a | b,
    Op.XOR: lambda vm, frame, a, b: a ^ b,
    Op.NOT: lambda vm, frame, a: ~a & _MASK,
    Op.BYTE: lambda vm, frame, index, value: (value >> (8 * (31 - index))) & 0xFF if index < 32 else 0,
    Op.SHL: lambda vm, frame, shift, value: 0 if shift >= 256 else (value << shift) & _MASK,
    Op.SHR: lambda vm, frame, shift, value: 0 if shift >= 256 else value >> shift,
    Op.SHA3: lambda vm, frame, offset, length: (
        sha256_int("evm-sha3", frame.mslice(offset, length)) & _MASK
    ),
    # environment
    Op.ADDRESS: lambda vm, frame: vm._address_to_word(frame.message.to),
    Op.BALANCE: lambda vm, frame, word: vm.state.get_balance(vm._word_to_address(word)) & _MASK,
    Op.ORIGIN: lambda vm, frame: vm._address_to_word(frame.message.origin or frame.message.sender),
    Op.CALLER: lambda vm, frame: vm._address_to_word(frame.message.sender),
    Op.CALLVALUE: lambda vm, frame: frame.message.value,
    Op.CALLDATALOAD: lambda vm, frame, offset: int.from_bytes(
        frame.message.data[offset : offset + 32].ljust(32, b"\x00"), "big"
    ),
    Op.CALLDATASIZE: lambda vm, frame: len(frame.message.data),
    Op.CODESIZE: lambda vm, frame: len(frame.code),
    Op.GASPRICE: lambda vm, frame: 1,
    Op.BLOCKHASH: lambda vm, frame, number: sha256_int("blockhash", number) & _MASK,
    Op.COINBASE: lambda vm, frame: vm._address_to_word(vm.block.coinbase),
    Op.TIMESTAMP: lambda vm, frame: vm.block.timestamp,
    Op.NUMBER: lambda vm, frame: vm.block.number,
    Op.GASLIMIT: lambda vm, frame: vm.block.gas_limit,
    # stack, memory, storage
    Op.POP: lambda vm, frame, a: None,
    Op.MLOAD: lambda vm, frame, offset: frame.mload(offset),
    Op.MSTORE: lambda vm, frame, offset, value: frame.mstore(offset, value),
    Op.MSTORE8: lambda vm, frame, offset, value: frame.mstore8(offset, value),
    Op.SLOAD: lambda vm, frame, slot: vm.state.storage_load(frame.message.to, slot) & _MASK,
    Op.SSTORE: lambda vm, frame, slot, value: vm.state.storage_store(frame.message.to, slot, value),
    Op.MSIZE: lambda vm, frame: len(frame.memory),
    Op.GAS: lambda vm, frame: frame.gas_remaining,
    # logs
    Op.LOG0: lambda vm, frame, offset, length: frame.logs.append(
        (frame.message.to, (), frame.mslice(offset, length))
    ),
    Op.LOG1: lambda vm, frame, offset, length, topic: frame.logs.append(
        (frame.message.to, (topic,), frame.mslice(offset, length))
    ),
}


#: ``byte -> (handler, gas, operand)`` for every table opcode, ``None`` for
#: an invalid byte.  Built at import, so a table opcode with neither a
#: handler of its own nor an operation of its declared shape fails here
#: rather than mid-decode.
_DISPATCH: List = [None] * 256
for _byte, _info in OPCODES.items():
    if _info.op in _OWN:
        _handler, _operand = _OWN[_info.op]
    else:
        _handler = _SHAPES.get((_info.pops, _info.pushes))
        _operand = _OPERATIONS.get(_info.op)
        assert _handler is not None and _operand is not None, f"no operation for {_info.op.name}"
        assert _operand.__code__.co_argcount == 2 + _info.pops, (
            f"the operation of {_info.op.name} does not pop {_info.pops} words"
        )
    _DISPATCH[_byte] = (_handler, _info.gas, _operand)
assert not _OWN.keys() & _OPERATIONS.keys(), "an opcode has both its own handler and an operation"
assert _OPERATIONS.keys() <= {info.op for info in OPCODES.values()}, "an operation of no table opcode"
