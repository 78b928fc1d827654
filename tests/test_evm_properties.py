"""Property-based tests for the mini-EVM: arithmetic/token invariants plus a
differential fuzz of the pre-decoded interpreter against the naive reference
loop of ``evm_reference`` (identical results, gas, logs, and state digests)."""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from evm_reference import NaiveEVM
from repro.crypto.hashing import sha256_hex
from repro.evm import predecode
from repro.evm.assembler import assemble
from repro.evm.contracts import encode_call, token_contract
from repro.evm.opcodes import OPCODES
from repro.evm.state import WorldState
from repro.evm.transactions import Transaction, apply_transaction
from repro.evm.vm import EVM, WORD, Message

ALICE = "0x" + "aa" * 20
CONTRACT = "0x" + "cc" * 20

uint256 = st.integers(min_value=0, max_value=WORD - 1)


def run_binary_op(mnemonic, a, b):
    """Execute ``a <op> b`` with a on top of the stack (EVM convention)."""
    code = assemble([
        "PUSH32 0x%x" % b,
        "PUSH32 0x%x" % a,
        mnemonic,
        "PUSH1 0x00", "MSTORE",
        "PUSH1 0x20", "PUSH1 0x00", "RETURN",
    ])
    result = EVM(WorldState()).execute(Message(sender=ALICE, to=CONTRACT, gas=10_000), code=code)
    assert result.success, result.error
    return int.from_bytes(result.return_data, "big")


@settings(max_examples=40, deadline=None)
@given(uint256, uint256)
def test_add_matches_modular_arithmetic(a, b):
    assert run_binary_op("ADD", a, b) == (a + b) % WORD


@settings(max_examples=40, deadline=None)
@given(uint256, uint256)
def test_sub_matches_modular_arithmetic(a, b):
    assert run_binary_op("SUB", a, b) == (a - b) % WORD


@settings(max_examples=40, deadline=None)
@given(uint256, uint256)
def test_mul_matches_modular_arithmetic(a, b):
    assert run_binary_op("MUL", a, b) == (a * b) % WORD


@settings(max_examples=40, deadline=None)
@given(uint256, uint256)
def test_div_matches_floor_division_with_zero_guard(a, b):
    expected = 0 if b == 0 else a // b
    assert run_binary_op("DIV", a, b) == expected


@settings(max_examples=40, deadline=None)
@given(uint256, uint256)
def test_comparison_ops_agree_with_python(a, b):
    assert run_binary_op("LT", a, b) == int(a < b)
    assert run_binary_op("GT", a, b) == int(a > b)
    assert run_binary_op("EQ", a, b) == int(a == b)


@settings(max_examples=40, deadline=None)
@given(uint256, uint256)
def test_bitwise_ops_agree_with_python(a, b):
    assert run_binary_op("AND", a, b) == a & b
    assert run_binary_op("OR", a, b) == a | b
    assert run_binary_op("XOR", a, b) == a ^ b


@settings(max_examples=15, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=20), st.integers(min_value=0, max_value=200)),
        min_size=1,
        max_size=12,
    )
)
def test_token_total_supply_invariant(operations):
    """Mints increase total supply; transfers never change it."""
    state = WorldState()
    state.add_balance(ALICE, 10**9)
    address = apply_transaction(state, Transaction.create(ALICE, token_contract())).contract_address
    alice_slot = int(ALICE, 16) & 0xFFFFFFFFFFFFFFFF

    minted = 0
    for slot, amount in operations:
        apply_transaction(state, Transaction.call(ALICE, address, encode_call(1, alice_slot, amount)))
        minted += amount
        # Transfer (may fail on overdraft; supply must be unchanged either way).
        apply_transaction(state, Transaction.call(ALICE, address, encode_call(2, slot, amount // 2)))
        total = sum(
            state.storage_load(address, s)
            for s in {alice_slot, *[s for s, _ in operations]}
        )
        assert total == minted


# ----------------------------------------------------------------------
# Differential fuzz: pre-decoded interpreter vs the naive reference loop.
# ----------------------------------------------------------------------

def _run_both_engines(code, data=b"", gas=20_000, balance=1000):
    """Run ``code`` through both engines on identical fresh states; return
    the (outcome, state digest) pair per engine."""
    outcomes = {}
    for name, engine in (("decoded", EVM), ("naive", NaiveEVM)):
        state = WorldState()
        state.add_balance(CONTRACT, balance)
        state.add_balance("0x" + "bb" * 20, balance)
        vm = engine(state)
        result = vm.execute(
            Message(sender=ALICE, to=CONTRACT, data=data, gas=gas), code=code
        )
        state_digest = sha256_hex("fuzz-state", sorted(state._backend._data.items()))
        outcomes[name] = (
            result.success,
            result.return_data,
            result.gas_used,
            result.error,
            tuple(result.logs),
            state_digest,
        )
    return outcomes


#: Operand-free mnemonics the structured generator draws from.  Everything the
#: VM supports except CALL (needs a 7-deep stack setup to be interesting) and
#: the halting/jump ops, which the scaffold places deliberately.
_SIMPLE_MNEMONICS = [
    "ADD", "MUL", "SUB", "DIV", "MOD", "ADDMOD", "MULMOD", "EXP",
    "LT", "GT", "SLT", "SGT", "EQ", "ISZERO",
    "AND", "OR", "XOR", "NOT", "BYTE", "SHL", "SHR", "SHA3",
    "ADDRESS", "BALANCE", "ORIGIN", "CALLER", "CALLVALUE",
    "CALLDATALOAD", "CALLDATASIZE", "CODESIZE", "GASPRICE",
    "BLOCKHASH", "COINBASE", "TIMESTAMP", "NUMBER", "GASLIMIT",
    "POP", "MLOAD", "MSTORE", "MSTORE8", "SLOAD", "SSTORE",
    "PC", "MSIZE", "GAS", "LOG0", "LOG1",
    "DUP1", "DUP2", "DUP3", "DUP4", "DUP5", "DUP6",
    "SWAP1", "SWAP2", "SWAP3", "SWAP4",
]

_instruction = st.one_of(
    st.sampled_from(_SIMPLE_MNEMONICS),
    st.integers(min_value=0, max_value=255).map(lambda v: f"PUSH1 0x{v:02x}"),
    st.integers(min_value=0, max_value=WORD - 1).map(lambda v: f"PUSH32 0x{v:x}"),
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(_instruction, min_size=1, max_size=30),
    st.binary(max_size=96),
    st.integers(min_value=0, max_value=20_000),
)
def test_differential_structured_programs(body, calldata, gas):
    """Random assembler-generated straight-line programs behave identically
    (including out-of-gas, stack underflow/overflow, and partial state)."""
    code = assemble(body + ["STOP"])
    outcomes = _run_both_engines(code, data=calldata, gas=gas)
    assert outcomes["decoded"] == outcomes["naive"]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(_instruction, min_size=0, max_size=10),
    st.lists(_instruction, min_size=0, max_size=10),
    st.booleans(),
    st.integers(min_value=0, max_value=2),
)
def test_differential_programs_with_jumps(prologue, body, conditional, junk_pushes):
    """Random programs with a forward jump over decoy 0x5b push data."""
    decoys = ["PUSH2 0x5b5b"] * junk_pushes
    jump = ["PUSH1 0x01", "PUSH2 @target", "JUMPI"] if conditional else ["PUSH2 @target", "JUMP"]
    listing = prologue + jump + decoys + ["STOP", ":target", "JUMPDEST"] + body + ["STOP"]
    code = assemble(listing)
    outcomes = _run_both_engines(code, gas=20_000)
    assert outcomes["decoded"] == outcomes["naive"]


@settings(max_examples=80, deadline=None)
@given(st.binary(min_size=1, max_size=64), st.binary(max_size=64))
def test_differential_raw_byte_programs(code, calldata):
    """Raw random bytes: invalid opcodes, truncated pushes, misaligned
    jump targets — both engines must agree byte-for-byte."""
    outcomes = _run_both_engines(code, data=calldata, gas=5_000)
    assert outcomes["decoded"] == outcomes["naive"]


@settings(max_examples=20, deadline=None)
@given(st.lists(st.sampled_from([1, 2, 3]), min_size=1, max_size=6), st.integers(0, 2**64 - 1))
def test_differential_token_contract_calls(selectors, seed):
    """The token contract (jumps, reverts, storage) agrees across engines for
    random call sequences applied to evolving state."""
    states = {}
    for name, engine in (("decoded", EVM), ("naive", NaiveEVM)):
        state = WorldState()
        state.add_balance(ALICE, 10**9)
        vm = engine(state)
        address = apply_transaction(
            state, Transaction.create(ALICE, token_contract()), vm
        ).contract_address
        outcomes = []
        for index, selector in enumerate(selectors):
            data = encode_call(selector, (seed + index) % 97, (seed * 31 + index) % 1009)
            receipt = apply_transaction(
                state, Transaction.call(ALICE, address, data, gas_limit=100_000), vm
            )
            outcomes.append((receipt.success, receipt.gas_used, receipt.return_data, receipt.error))
        states[name] = (outcomes, sha256_hex("fuzz-state", sorted(state._backend._data.items())))
    assert states["decoded"] == states["naive"]


# ----------------------------------------------------------------------
# Deterministic differential: every opcode-table entry on every run.
# ----------------------------------------------------------------------

#: Stack operands pushed before the opcode under test, top of stack first.
#: Seven cover the deepest pop (CALL) and SWAP4/DUP6.  ``small`` makes every
#: opcode do real work (memory at offset 2, a jump to a non-JUMPDEST, a call
#: with value to an empty account); ``wide`` hits the sign bit, the low byte
#: for BYTE, modular wrap-around and memory beyond the limit.
STACK_READY = {
    "small": (2, 0x1234, 7, 3, 0x20, 1, 0),
    "wide": (31, WORD - 3, 2 ** 255, WORD - 1, 255, 2 ** 64, 1),
}

#: After the opcode: store the top of the stack and return it.
_REPORT = assemble(["PUSH1 0x00", "MSTORE", "PUSH1 0x20", "PUSH1 0x00", "RETURN"])


def _stack_ready_program(byte, operands):
    """``operands`` pushed (PUSH32 each, last first), then ``byte`` — with
    an immediate of 0xab.. bytes for a PUSH — then the report suffix."""
    code = b"".join(b"\x7f" + value.to_bytes(32, "big") for value in reversed(operands))
    width = OPCODES[byte].immediate_bytes
    return code + bytes([byte]) + bytes([0xAB]) * width + _REPORT


def _underflow_program(byte):
    """``byte`` on an empty stack (a PUSH's immediate runs off the code)."""
    return bytes([byte, 0x00])


def _opcode_name(byte):
    return OPCODES[byte].op.name


def _compare_engines(code):
    outcomes = _run_both_engines(code, data=bytes(range(40)), gas=100_000)
    assert outcomes["decoded"] == outcomes["naive"]
    return outcomes["decoded"]


@pytest.mark.parametrize("byte", sorted(OPCODES), ids=_opcode_name)
@pytest.mark.parametrize("operands", sorted(STACK_READY))
def test_differential_every_opcode_with_a_ready_stack(byte, operands):
    _compare_engines(_stack_ready_program(byte, STACK_READY[operands]))


@pytest.mark.parametrize("byte", sorted(OPCODES), ids=_opcode_name)
def test_differential_every_opcode_on_an_empty_stack(byte):
    success, _data, _gas, error, _logs, _digest = _compare_engines(_underflow_program(byte))
    if OPCODES[byte].pops or _opcode_name(byte).startswith(("DUP", "SWAP")):
        assert not success and "stack underflow" in error


def test_the_per_opcode_cases_enter_every_decoded_handler():
    """The cases above compare each handler of the decoded engine on every
    run; which ones the hypothesis draws reach is left to chance."""
    handlers = {handler.__name__ for handler in predecode._HANDLERS.values()}
    handlers |= {"_h_push", "_h_dup", "_h_swap", "_h_jumpdest"}
    entered = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name.startswith("_h_"):
            entered.add(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        for byte in sorted(OPCODES):
            for operands in STACK_READY.values():
                _compare_engines(_stack_ready_program(byte, operands))
    finally:
        sys.setprofile(None)
    assert handlers - entered == set()
