"""Reference contracts written in mini-EVM assembly.

Used by tests, examples and the synthetic Ethereum workload.  Three contracts
cover the behaviours the paper's smart-contract benchmark exercises: repeated
storage writes (counter), a token ledger with per-account balances (the bulk
of real Ethereum traffic), and a generic key-value register.
"""

from __future__ import annotations

from functools import lru_cache

from repro.evm.assembler import assemble

#: Calling convention used by these contracts: calldata word 0 selects the
#: function, subsequent words are arguments.
SELECTOR_OFFSET = 0
ARG1_OFFSET = 32
ARG2_OFFSET = 64


@lru_cache(maxsize=None)
def counter_contract() -> bytes:
    """A contract with a single counter in slot 0; any call increments it and
    returns the new value."""
    return assemble([
        "PUSH1 0x00", "SLOAD",        # [count]
        "PUSH1 0x01", "ADD",          # [count+1]
        "DUP1",                       # [count+1, count+1]
        "PUSH1 0x00", "SSTORE",       # [count+1]
        "PUSH1 0x00", "MSTORE",       # memory[0..32] = count+1
        "PUSH1 0x20", "PUSH1 0x00", "RETURN",
    ])


@lru_cache(maxsize=None)
def storage_contract() -> bytes:
    """A key-value register: ``fn=1`` stores ``(arg1 -> arg2)``, ``fn=2``
    loads ``arg1`` and returns the stored value."""
    return assemble([
        "PUSH1 0x00", "CALLDATALOAD",       # [fn]
        "PUSH1 0x01", "EQ",                 # [fn==1]
        "PUSH2 @do_store", "JUMPI",
        "PUSH1 0x00", "CALLDATALOAD",       # [fn]
        "PUSH1 0x02", "EQ",
        "PUSH2 @do_load", "JUMPI",
        "STOP",
        ":do_store",
        "JUMPDEST",
        "PUSH1 0x40", "CALLDATALOAD",       # [value]
        "PUSH1 0x20", "CALLDATALOAD",       # [value, key]
        "SSTORE",                           # storage[key] = value
        "STOP",
        ":do_load",
        "JUMPDEST",
        "PUSH1 0x20", "CALLDATALOAD",       # [key]
        "SLOAD",                            # [value]
        "PUSH1 0x00", "MSTORE",
        "PUSH1 0x20", "PUSH1 0x00", "RETURN",
    ])


@lru_cache(maxsize=None)
def token_contract() -> bytes:
    """A minimal token: ``fn=1`` mints ``arg2`` units to account slot ``arg1``;
    ``fn=2`` transfers ``arg2`` units from the caller's slot (``caller mod
    2^64``) to slot ``arg1``; ``fn=3`` returns the balance of slot ``arg1``.

    Balances are stored one per slot; the caller's slot is derived from the
    low 64 bits of its address so the contract needs no mapping hash support.
    """
    return assemble([
        # dispatch
        "PUSH1 0x00", "CALLDATALOAD",
        "PUSH1 0x01", "EQ",
        "PUSH2 @mint", "JUMPI",
        "PUSH1 0x00", "CALLDATALOAD",
        "PUSH1 0x02", "EQ",
        "PUSH2 @transfer", "JUMPI",
        "PUSH1 0x00", "CALLDATALOAD",
        "PUSH1 0x03", "EQ",
        "PUSH2 @balance", "JUMPI",
        "STOP",

        ":mint",
        "JUMPDEST",
        # storage[arg1] += arg2
        "PUSH1 0x20", "CALLDATALOAD",       # [slot]
        "DUP1", "SLOAD",                    # [slot, bal]
        "PUSH1 0x40", "CALLDATALOAD",       # [slot, bal, amt]
        "ADD",                              # [slot, bal+amt]
        "SWAP1",                            # [bal+amt, slot]
        "SSTORE",
        "STOP",

        ":transfer",
        "JUMPDEST",
        # caller_slot = CALLER & (2^64 - 1)
        "CALLER",
        "PUSH8 0xffffffffffffffff", "AND",  # [from_slot]
        # check balance >= amt : if bal < amt -> revert
        "DUP1", "SLOAD",                    # [from_slot, bal]
        "DUP1",                             # [from_slot, bal, bal]
        "PUSH1 0x40", "CALLDATALOAD",       # [from_slot, bal, bal, amt]
        "GT",                               # [from_slot, bal, amt>bal]
        "PUSH2 @fail", "JUMPI",             # revert if amt > bal
        # storage[from_slot] = bal - amt
        "PUSH1 0x40", "CALLDATALOAD",       # [from_slot, bal, amt]
        "SWAP1",                            # [from_slot, amt, bal]
        "SUB",                              # [from_slot, bal-amt]
        "SWAP1",                            # [bal-amt, from_slot]
        "SSTORE",
        # storage[arg1] += amt
        "PUSH1 0x20", "CALLDATALOAD",       # [to_slot]
        "DUP1", "SLOAD",                    # [to_slot, to_bal]
        "PUSH1 0x40", "CALLDATALOAD",       # [to_slot, to_bal, amt]
        "ADD",
        "SWAP1",
        "SSTORE",
        # return 1
        "PUSH1 0x01", "PUSH1 0x00", "MSTORE",
        "PUSH1 0x20", "PUSH1 0x00", "RETURN",

        ":balance",
        "JUMPDEST",
        "PUSH1 0x20", "CALLDATALOAD",
        "SLOAD",
        "PUSH1 0x00", "MSTORE",
        "PUSH1 0x20", "PUSH1 0x00", "RETURN",

        ":fail",
        "JUMPDEST",
        "PUSH1 0x00", "PUSH1 0x00", "REVERT",
    ])


def encode_call(selector: int, arg1: int = 0, arg2: int = 0) -> bytes:
    """Encode calldata per the convention used by the reference contracts."""
    return selector.to_bytes(32, "big") + arg1.to_bytes(32, "big") + arg2.to_bytes(32, "big")
