"""A tiny assembler for mini-EVM bytecode.

Lets the examples and tests write contracts as readable mnemonic listings
instead of raw byte strings::

    code = assemble([
        "PUSH1 0x00", "SLOAD",        # load counter
        "PUSH1 0x01", "ADD",          # increment
        "PUSH1 0x00", "SSTORE",       # store back
        "STOP",
    ])

Labels are supported for jump targets: a line ``":loop"`` defines a label and
``"PUSH2 @loop"`` pushes its byte offset.
"""

from __future__ import annotations

from typing import Sequence, Union

from repro.errors import EVMError
from repro.evm.opcodes import OPCODES, Op

Instruction = Union[str, int]


def _parse_value(token: str, labels: dict) -> int:
    if token.startswith("@"):
        label = token[1:]
        if label not in labels:
            raise EVMError(f"undefined label {label!r}")
        return labels[label]
    return int(token, 0)


def _instruction_size(line: str) -> int:
    parts = line.split()
    name = parts[0].upper()
    if name.startswith(":"):
        return 0
    try:
        op = Op[name]
    except KeyError:
        raise EVMError(f"unknown mnemonic {name!r}") from None
    return 1 + OPCODES[int(op)].immediate_bytes


def assemble(lines: Sequence[Instruction]) -> bytes:
    """Assemble mnemonic lines (or raw ints) into bytecode."""
    # First pass: resolve label offsets.
    labels: dict = {}
    offset = 0
    for line in lines:
        if isinstance(line, int):
            offset += 1
            continue
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith(":"):
            labels[stripped[1:]] = offset
            continue
        offset += _instruction_size(stripped)

    # Second pass: emit bytes.
    code = bytearray()
    for line in lines:
        if isinstance(line, int):
            code.append(line & 0xFF)
            continue
        stripped = line.strip()
        if not stripped or stripped.startswith("#") or stripped.startswith(":"):
            continue
        parts = stripped.split()
        name = parts[0].upper()
        op = Op[name]
        info = OPCODES[int(op)]
        code.append(int(op))
        if info.immediate_bytes:
            if len(parts) < 2:
                raise EVMError(f"{name} requires an immediate operand")
            value = _parse_value(parts[1], labels)
            code += value.to_bytes(info.immediate_bytes, "big")
        elif len(parts) > 1:
            raise EVMError(f"{name} takes no operand")
    return bytes(code)

