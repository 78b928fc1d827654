"""Pre-decoded instruction streams for the mini-EVM.

The naive interpreter in :mod:`repro.evm.vm` re-decodes raw bytecode on every
step: a dict lookup per byte, an immediate re-parse per PUSH, and a ~40-branch
``if``/``elif`` chain per simple opcode.  EVM bytecode is immutable once
deployed, so all of that work can be hoisted into a one-time pre-decode pass
per code blob:

* every instruction becomes a ``(handler, gas, operand, byte_pc)`` tuple with
  the PUSH immediate already parsed and a *direct* handler reference from the
  table below (no opcode dispatch at run time),
* the set of **valid** JUMPDEST byte offsets is computed by walking
  instruction boundaries — a ``0x5b`` byte inside PUSH immediate data is data,
  not a jump target (this also fixes the naive loop's historical bug of
  accepting any ``0x5b`` byte),
* jump targets resolve through a byte-offset -> instruction-index map so JUMP
  and JUMPI are a single dict probe.

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
from typing import Dict, List, Tuple

from repro.crypto.hashing import sha256_int
from repro.errors import EVMError, OutOfGas
from repro.evm.opcodes import IMMEDIATE_WIDTHS, JUMPDEST_BYTE, OPCODE_INFO, OPCODES, Op

# Execution limits shared by both engines (vm.py re-exports them): they are
# part of the observable semantics, so a single definition keeps the decoded
# and naive loops in lock-step.
WORD = 2**256
_MASK = WORD - 1
MAX_STACK = 1024
MAX_STEPS = 100_000

#: Instruction index returned by halting handlers; larger than any real
#: program (``len(instructions) <= len(code)``), so the run loop exits.
_END = 1 << 60


def compute_valid_jumpdests(code: bytes) -> frozenset:
    """Valid JUMPDEST byte offsets: ``0x5b`` bytes *at instruction boundaries*.

    This is the real EVM's JUMPDEST analysis — a linear scan from offset 0
    that skips PUSH immediates — implemented independently of
    :func:`predecode` so the naive reference loop does not inherit decoder
    bugs (the differential tests cross-check the two walks).
    """
    valid = set()
    widths = IMMEDIATE_WIDTHS
    pc = 0
    length = len(code)
    while pc < length:
        byte = code[pc]
        if byte == JUMPDEST_BYTE:
            valid.add(pc)
        pc += 1 + widths[byte]
    return frozenset(valid)


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
    info_table = OPCODE_INFO
    pc = 0
    length = len(code)
    while pc < length:
        byte = code[pc]
        info = info_table[byte]
        if info is None:
            # Reached only if execution actually gets here; gas 0 so nothing
            # is charged before the error (matching the naive loop's
            # lookup-before-charge order).
            message = f"invalid opcode 0x{byte:02x} at pc {pc}"
            instructions.append((_h_invalid, 0, message, pc))
            pc += 1
            continue
        width = info.immediate_bytes
        if width:
            value = int.from_bytes(code[pc + 1 : pc + 1 + width], "big")
            instructions.append((_h_push, info.gas, value, pc))
            pc += 1 + width
            continue
        if byte == JUMPDEST_BYTE:
            jumpdest_index[pc] = len(instructions)
            instructions.append((_h_jumpdest, info.gas, None, pc))
            pc += 1
            continue
        op = info.op
        if Op.DUP1 <= op <= Op.DUP6:
            instructions.append((_h_dup, info.gas, op - Op.DUP1 + 1, pc))
        elif Op.SWAP1 <= op <= Op.SWAP4:
            instructions.append((_h_swap, info.gas, op - Op.SWAP1 + 1, pc))
        else:
            instructions.append((_HANDLERS[byte], info.gas, None, pc))
        pc += 1
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


# -- control flow ------------------------------------------------------

def _h_stop(vm, frame, inst, ip):
    frame.halt = (b"", True, None)
    return _END


def _h_return(vm, frame, inst, ip):
    stack = frame.stack
    try:
        offset = stack.pop()
        length = stack.pop()
    except IndexError:
        raise _underflow() from None
    frame.halt = (frame.mslice(offset, length), True, None)
    return _END


def _h_revert(vm, frame, inst, ip):
    stack = frame.stack
    try:
        offset = stack.pop()
        length = stack.pop()
    except IndexError:
        raise _underflow() from None
    frame.halt = (frame.mslice(offset, length), False, "revert")
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


# -- arithmetic --------------------------------------------------------

def _h_add(vm, frame, inst, ip):
    stack = frame.stack
    try:
        a = stack.pop()
        b = stack.pop()
    except IndexError:
        raise _underflow() from None
    stack.append((a + b) & _MASK)
    return ip + 1


def _h_mul(vm, frame, inst, ip):
    stack = frame.stack
    try:
        a = stack.pop()
        b = stack.pop()
    except IndexError:
        raise _underflow() from None
    stack.append((a * b) & _MASK)
    return ip + 1


def _h_sub(vm, frame, inst, ip):
    stack = frame.stack
    try:
        a = stack.pop()
        b = stack.pop()
    except IndexError:
        raise _underflow() from None
    stack.append((a - b) & _MASK)
    return ip + 1


def _h_div(vm, frame, inst, ip):
    stack = frame.stack
    try:
        a = stack.pop()
        b = stack.pop()
    except IndexError:
        raise _underflow() from None
    stack.append(0 if b == 0 else a // b)
    return ip + 1


def _h_mod(vm, frame, inst, ip):
    stack = frame.stack
    try:
        a = stack.pop()
        b = stack.pop()
    except IndexError:
        raise _underflow() from None
    stack.append(0 if b == 0 else a % b)
    return ip + 1


def _h_addmod(vm, frame, inst, ip):
    stack = frame.stack
    try:
        a = stack.pop()
        b = stack.pop()
        n = stack.pop()
    except IndexError:
        raise _underflow() from None
    stack.append(0 if n == 0 else (a + b) % n)
    return ip + 1


def _h_mulmod(vm, frame, inst, ip):
    stack = frame.stack
    try:
        a = stack.pop()
        b = stack.pop()
        n = stack.pop()
    except IndexError:
        raise _underflow() from None
    stack.append(0 if n == 0 else (a * b) % n)
    return ip + 1


def _h_exp(vm, frame, inst, ip):
    stack = frame.stack
    try:
        a = stack.pop()
        b = stack.pop()
    except IndexError:
        raise _underflow() from None
    stack.append(pow(a, b, WORD))
    return ip + 1


# -- comparisons -------------------------------------------------------

def _h_lt(vm, frame, inst, ip):
    stack = frame.stack
    try:
        a = stack.pop()
        b = stack.pop()
    except IndexError:
        raise _underflow() from None
    stack.append(1 if a < b else 0)
    return ip + 1


def _h_gt(vm, frame, inst, ip):
    stack = frame.stack
    try:
        a = stack.pop()
        b = stack.pop()
    except IndexError:
        raise _underflow() from None
    stack.append(1 if a > b else 0)
    return ip + 1


def _to_signed(value: int) -> int:
    return value - WORD if value >= WORD // 2 else value


def _h_slt(vm, frame, inst, ip):
    stack = frame.stack
    try:
        a = stack.pop()
        b = stack.pop()
    except IndexError:
        raise _underflow() from None
    stack.append(1 if _to_signed(a) < _to_signed(b) else 0)
    return ip + 1


def _h_sgt(vm, frame, inst, ip):
    stack = frame.stack
    try:
        a = stack.pop()
        b = stack.pop()
    except IndexError:
        raise _underflow() from None
    stack.append(1 if _to_signed(a) > _to_signed(b) else 0)
    return ip + 1


def _h_eq(vm, frame, inst, ip):
    stack = frame.stack
    try:
        a = stack.pop()
        b = stack.pop()
    except IndexError:
        raise _underflow() from None
    stack.append(1 if a == b else 0)
    return ip + 1


def _h_iszero(vm, frame, inst, ip):
    stack = frame.stack
    try:
        a = stack.pop()
    except IndexError:
        raise _underflow() from None
    stack.append(1 if a == 0 else 0)
    return ip + 1


# -- bitwise -----------------------------------------------------------

def _h_and(vm, frame, inst, ip):
    stack = frame.stack
    try:
        a = stack.pop()
        b = stack.pop()
    except IndexError:
        raise _underflow() from None
    stack.append(a & b)
    return ip + 1


def _h_or(vm, frame, inst, ip):
    stack = frame.stack
    try:
        a = stack.pop()
        b = stack.pop()
    except IndexError:
        raise _underflow() from None
    stack.append(a | b)
    return ip + 1


def _h_xor(vm, frame, inst, ip):
    stack = frame.stack
    try:
        a = stack.pop()
        b = stack.pop()
    except IndexError:
        raise _underflow() from None
    stack.append(a ^ b)
    return ip + 1


def _h_not(vm, frame, inst, ip):
    stack = frame.stack
    try:
        a = stack.pop()
    except IndexError:
        raise _underflow() from None
    stack.append(~a & _MASK)
    return ip + 1


def _h_byte(vm, frame, inst, ip):
    stack = frame.stack
    try:
        index = stack.pop()
        value = stack.pop()
    except IndexError:
        raise _underflow() from None
    stack.append((value >> (8 * (31 - index))) & 0xFF if index < 32 else 0)
    return ip + 1


def _h_shl(vm, frame, inst, ip):
    stack = frame.stack
    try:
        shift = stack.pop()
        value = stack.pop()
    except IndexError:
        raise _underflow() from None
    stack.append(0 if shift >= 256 else (value << shift) & _MASK)
    return ip + 1


def _h_shr(vm, frame, inst, ip):
    stack = frame.stack
    try:
        shift = stack.pop()
        value = stack.pop()
    except IndexError:
        raise _underflow() from None
    stack.append(0 if shift >= 256 else value >> shift)
    return ip + 1


def _h_sha3(vm, frame, inst, ip):
    stack = frame.stack
    try:
        offset = stack.pop()
        length = stack.pop()
    except IndexError:
        raise _underflow() from None
    stack.append(sha256_int("evm-sha3", frame.mslice(offset, length)) & _MASK)
    return ip + 1


# -- environment -------------------------------------------------------

def _checked_push(frame, value):
    stack = frame.stack
    if len(stack) >= MAX_STACK:
        raise EVMError("stack overflow")
    stack.append(value & _MASK)


def _h_address(vm, frame, inst, ip):
    _checked_push(frame, vm._address_to_word(frame.message.to))
    return ip + 1


def _h_balance(vm, frame, inst, ip):
    stack = frame.stack
    try:
        word = stack.pop()
    except IndexError:
        raise _underflow() from None
    stack.append(vm.state.get_balance(vm._word_to_address(word)) & _MASK)
    return ip + 1


def _h_origin(vm, frame, inst, ip):
    msg = frame.message
    _checked_push(frame, vm._address_to_word(msg.origin or msg.sender))
    return ip + 1


def _h_caller(vm, frame, inst, ip):
    _checked_push(frame, vm._address_to_word(frame.message.sender))
    return ip + 1


def _h_callvalue(vm, frame, inst, ip):
    _checked_push(frame, frame.message.value)
    return ip + 1


def _h_calldataload(vm, frame, inst, ip):
    stack = frame.stack
    try:
        offset = stack.pop()
    except IndexError:
        raise _underflow() from None
    data = frame.message.data[offset : offset + 32]
    stack.append(int.from_bytes(data.ljust(32, b"\x00"), "big"))
    return ip + 1


def _h_calldatasize(vm, frame, inst, ip):
    _checked_push(frame, len(frame.message.data))
    return ip + 1


def _h_codesize(vm, frame, inst, ip):
    _checked_push(frame, len(frame.code))
    return ip + 1


def _h_gasprice(vm, frame, inst, ip):
    _checked_push(frame, 1)
    return ip + 1


def _h_blockhash(vm, frame, inst, ip):
    stack = frame.stack
    try:
        number = stack.pop()
    except IndexError:
        raise _underflow() from None
    stack.append(sha256_int("blockhash", number) & _MASK)
    return ip + 1


def _h_coinbase(vm, frame, inst, ip):
    _checked_push(frame, vm._address_to_word(vm.block.coinbase))
    return ip + 1


def _h_timestamp(vm, frame, inst, ip):
    _checked_push(frame, vm.block.timestamp)
    return ip + 1


def _h_number(vm, frame, inst, ip):
    _checked_push(frame, vm.block.number)
    return ip + 1


def _h_gaslimit(vm, frame, inst, ip):
    _checked_push(frame, vm.block.gas_limit)
    return ip + 1


# -- stack / memory / storage -----------------------------------------

def _h_pop(vm, frame, inst, ip):
    try:
        frame.stack.pop()
    except IndexError:
        raise _underflow() from None
    return ip + 1


def _h_mload(vm, frame, inst, ip):
    stack = frame.stack
    try:
        offset = stack.pop()
    except IndexError:
        raise _underflow() from None
    stack.append(frame.mload(offset))
    return ip + 1


def _h_mstore(vm, frame, inst, ip):
    stack = frame.stack
    try:
        offset = stack.pop()
        value = stack.pop()
    except IndexError:
        raise _underflow() from None
    frame.mstore(offset, value)
    return ip + 1


def _h_mstore8(vm, frame, inst, ip):
    stack = frame.stack
    try:
        offset = stack.pop()
        value = stack.pop()
    except IndexError:
        raise _underflow() from None
    frame.mstore8(offset, value)
    return ip + 1


def _h_sload(vm, frame, inst, ip):
    stack = frame.stack
    try:
        slot = stack.pop()
    except IndexError:
        raise _underflow() from None
    stack.append(vm.state.storage_load(frame.message.to, slot) & _MASK)
    return ip + 1


def _h_sstore(vm, frame, inst, ip):
    stack = frame.stack
    try:
        slot = stack.pop()
        value = stack.pop()
    except IndexError:
        raise _underflow() from None
    vm.state.storage_store(frame.message.to, slot, value)
    return ip + 1


def _h_msize(vm, frame, inst, ip):
    _checked_push(frame, len(frame.memory))
    return ip + 1


def _h_gas(vm, frame, inst, ip):
    _checked_push(frame, frame.gas_remaining)
    return ip + 1


# -- logs / calls / selfdestruct --------------------------------------

def _h_log0(vm, frame, inst, ip):
    stack = frame.stack
    try:
        offset = stack.pop()
        length = stack.pop()
    except IndexError:
        raise _underflow() from None
    frame.logs.append((frame.message.to, (), frame.mslice(offset, length)))
    return ip + 1


def _h_log1(vm, frame, inst, ip):
    stack = frame.stack
    try:
        offset = stack.pop()
        length = stack.pop()
        topic = stack.pop()
    except IndexError:
        raise _underflow() from None
    frame.logs.append((frame.message.to, (topic,), frame.mslice(offset, length)))
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


_HANDLERS: Dict[int, object] = {
    int(Op.STOP): _h_stop,
    int(Op.ADD): _h_add,
    int(Op.MUL): _h_mul,
    int(Op.SUB): _h_sub,
    int(Op.DIV): _h_div,
    int(Op.MOD): _h_mod,
    int(Op.ADDMOD): _h_addmod,
    int(Op.MULMOD): _h_mulmod,
    int(Op.EXP): _h_exp,
    int(Op.LT): _h_lt,
    int(Op.GT): _h_gt,
    int(Op.SLT): _h_slt,
    int(Op.SGT): _h_sgt,
    int(Op.EQ): _h_eq,
    int(Op.ISZERO): _h_iszero,
    int(Op.AND): _h_and,
    int(Op.OR): _h_or,
    int(Op.XOR): _h_xor,
    int(Op.NOT): _h_not,
    int(Op.BYTE): _h_byte,
    int(Op.SHL): _h_shl,
    int(Op.SHR): _h_shr,
    int(Op.SHA3): _h_sha3,
    int(Op.ADDRESS): _h_address,
    int(Op.BALANCE): _h_balance,
    int(Op.ORIGIN): _h_origin,
    int(Op.CALLER): _h_caller,
    int(Op.CALLVALUE): _h_callvalue,
    int(Op.CALLDATALOAD): _h_calldataload,
    int(Op.CALLDATASIZE): _h_calldatasize,
    int(Op.CODESIZE): _h_codesize,
    int(Op.GASPRICE): _h_gasprice,
    int(Op.BLOCKHASH): _h_blockhash,
    int(Op.COINBASE): _h_coinbase,
    int(Op.TIMESTAMP): _h_timestamp,
    int(Op.NUMBER): _h_number,
    int(Op.GASLIMIT): _h_gaslimit,
    int(Op.POP): _h_pop,
    int(Op.MLOAD): _h_mload,
    int(Op.MSTORE): _h_mstore,
    int(Op.MSTORE8): _h_mstore8,
    int(Op.SLOAD): _h_sload,
    int(Op.SSTORE): _h_sstore,
    int(Op.JUMP): _h_jump,
    int(Op.JUMPI): _h_jumpi,
    int(Op.PC): _h_pc,
    int(Op.MSIZE): _h_msize,
    int(Op.GAS): _h_gas,
    int(Op.LOG0): _h_log0,
    int(Op.LOG1): _h_log1,
    int(Op.CALL): _h_call,
    int(Op.RETURN): _h_return,
    int(Op.REVERT): _h_revert,
    int(Op.SELFDESTRUCT): _h_selfdestruct,
}

# Every non-immediate, non-JUMPDEST opcode must have a handler (the decoder
# special-cases PUSH/DUP/SWAP/JUMPDEST); catching a gap at import time beats a
# KeyError mid-decode.
for _byte, _info in OPCODES.items():
    if _info.immediate_bytes or _byte == JUMPDEST_BYTE:
        continue
    if Op.DUP1 <= _info.op <= Op.DUP6 or Op.SWAP1 <= _info.op <= Op.SWAP4:
        continue
    assert _byte in _HANDLERS, f"missing decoded handler for {_info.op.name}"
