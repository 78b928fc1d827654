"""Opcode table for the mini-EVM.

Opcode numbers follow the real EVM where an equivalent exists so disassembly
of simple contracts looks familiar; gas costs are the Frontier-era base costs,
which is enough for the simulation's purpose (charging execution time
proportional to work done).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Dict


class Op(IntEnum):
    """Supported opcodes (a subset of the real EVM instruction set)."""

    STOP = 0x00
    ADD = 0x01
    MUL = 0x02
    SUB = 0x03
    DIV = 0x04
    MOD = 0x06
    ADDMOD = 0x08
    MULMOD = 0x09
    EXP = 0x0A
    LT = 0x10
    GT = 0x11
    SLT = 0x12
    SGT = 0x13
    EQ = 0x14
    ISZERO = 0x15
    AND = 0x16
    OR = 0x17
    XOR = 0x18
    NOT = 0x19
    BYTE = 0x1A
    SHL = 0x1B
    SHR = 0x1C
    SHA3 = 0x20
    ADDRESS = 0x30
    BALANCE = 0x31
    ORIGIN = 0x32
    CALLER = 0x33
    CALLVALUE = 0x34
    CALLDATALOAD = 0x35
    CALLDATASIZE = 0x36
    CODESIZE = 0x38
    GASPRICE = 0x3A
    BLOCKHASH = 0x40
    COINBASE = 0x41
    TIMESTAMP = 0x42
    NUMBER = 0x43
    GASLIMIT = 0x45
    POP = 0x50
    MLOAD = 0x51
    MSTORE = 0x52
    MSTORE8 = 0x53
    SLOAD = 0x54
    SSTORE = 0x55
    JUMP = 0x56
    JUMPI = 0x57
    PC = 0x58
    MSIZE = 0x59
    GAS = 0x5A
    JUMPDEST = 0x5B
    PUSH1 = 0x60
    PUSH2 = 0x61
    PUSH4 = 0x63
    PUSH8 = 0x67
    PUSH16 = 0x6F
    PUSH32 = 0x7F
    DUP1 = 0x80
    DUP2 = 0x81
    DUP3 = 0x82
    DUP4 = 0x83
    DUP5 = 0x84
    DUP6 = 0x85
    SWAP1 = 0x90
    SWAP2 = 0x91
    SWAP3 = 0x92
    SWAP4 = 0x93
    LOG0 = 0xA0
    LOG1 = 0xA1
    CALL = 0xF1
    RETURN = 0xF3
    REVERT = 0xFD
    SELFDESTRUCT = 0xFF


@dataclass(frozen=True)
class OpcodeInfo:
    """Static metadata about one opcode."""

    op: Op
    gas: int
    pops: int
    pushes: int
    immediate_bytes: int = 0


def _push_width(op: Op) -> int:
    return op - Op.PUSH1 + 1


_BASE = {
    Op.STOP: (0, 0, 0),
    Op.ADD: (3, 2, 1),
    Op.MUL: (5, 2, 1),
    Op.SUB: (3, 2, 1),
    Op.DIV: (5, 2, 1),
    Op.MOD: (5, 2, 1),
    Op.ADDMOD: (8, 3, 1),
    Op.MULMOD: (8, 3, 1),
    Op.EXP: (10, 2, 1),
    Op.LT: (3, 2, 1),
    Op.GT: (3, 2, 1),
    Op.SLT: (3, 2, 1),
    Op.SGT: (3, 2, 1),
    Op.EQ: (3, 2, 1),
    Op.ISZERO: (3, 1, 1),
    Op.AND: (3, 2, 1),
    Op.OR: (3, 2, 1),
    Op.XOR: (3, 2, 1),
    Op.NOT: (3, 1, 1),
    Op.BYTE: (3, 2, 1),
    Op.SHL: (3, 2, 1),
    Op.SHR: (3, 2, 1),
    Op.SHA3: (30, 2, 1),
    Op.ADDRESS: (2, 0, 1),
    Op.BALANCE: (20, 1, 1),
    Op.ORIGIN: (2, 0, 1),
    Op.CALLER: (2, 0, 1),
    Op.CALLVALUE: (2, 0, 1),
    Op.CALLDATALOAD: (3, 1, 1),
    Op.CALLDATASIZE: (2, 0, 1),
    Op.CODESIZE: (2, 0, 1),
    Op.GASPRICE: (2, 0, 1),
    Op.BLOCKHASH: (20, 1, 1),
    Op.COINBASE: (2, 0, 1),
    Op.TIMESTAMP: (2, 0, 1),
    Op.NUMBER: (2, 0, 1),
    Op.GASLIMIT: (2, 0, 1),
    Op.POP: (2, 1, 0),
    Op.MLOAD: (3, 1, 1),
    Op.MSTORE: (3, 2, 0),
    Op.MSTORE8: (3, 2, 0),
    Op.SLOAD: (50, 1, 1),
    Op.SSTORE: (200, 2, 0),
    Op.JUMP: (8, 1, 0),
    Op.JUMPI: (10, 2, 0),
    Op.PC: (2, 0, 1),
    Op.MSIZE: (2, 0, 1),
    Op.GAS: (2, 0, 1),
    Op.JUMPDEST: (1, 0, 0),
    Op.LOG0: (375, 2, 0),
    Op.LOG1: (750, 3, 0),
    Op.CALL: (700, 7, 1),
    Op.RETURN: (0, 2, 0),
    Op.REVERT: (0, 2, 0),
    Op.SELFDESTRUCT: (5000, 1, 0),
}

OPCODES: Dict[int, OpcodeInfo] = {}
for _op, (_gas, _pops, _pushes) in _BASE.items():
    OPCODES[int(_op)] = OpcodeInfo(op=_op, gas=_gas, pops=_pops, pushes=_pushes)

for _op in (Op.PUSH1, Op.PUSH2, Op.PUSH4, Op.PUSH8, Op.PUSH16, Op.PUSH32):
    OPCODES[int(_op)] = OpcodeInfo(op=_op, gas=3, pops=0, pushes=1, immediate_bytes=_push_width(_op))

for _op in (Op.DUP1, Op.DUP2, Op.DUP3, Op.DUP4, Op.DUP5, Op.DUP6):
    OPCODES[int(_op)] = OpcodeInfo(op=_op, gas=3, pops=0, pushes=1)

for _op in (Op.SWAP1, Op.SWAP2, Op.SWAP3, Op.SWAP4):
    OPCODES[int(_op)] = OpcodeInfo(op=_op, gas=3, pops=0, pushes=0)


#: Byte-indexed views of the opcode table for the decoder hot paths: a dense
#: 256-entry list avoids dict lookups when walking instruction boundaries, and
#: ``IMMEDIATE_WIDTHS`` gives the number of immediate bytes each opcode
#: consumes (0 for everything except the PUSH family).
OPCODE_INFO = [OPCODES.get(byte) for byte in range(256)]
IMMEDIATE_WIDTHS = [info.immediate_bytes if info is not None else 0 for info in OPCODE_INFO]

JUMPDEST_BYTE = int(Op.JUMPDEST)

