"""The ledger prices a block by a dry run: a property-based differential.

``LedgerService.block_execution_cost`` runs a block over an overlay of the
ledger's state and records the replay entry every replica then applies
(``execute_block``).  For random blocks of transfers, contract calls and
deploys — deploys whose creation gas is over 60 000, transactions that fail
(insufficient balance, out of gas) and payloads that are no transaction —
the entry must equal what a plain ``execute`` loop on a fresh ledger does:
the same results, receipts, contents in the same insertion order, journal
and digest, at the price of the gas the receipts burned.  The dry run must
leave the pricing ledger as it was, and a ledger at another pre-state must
price the block by its own run.
"""

from hypothesis import example, given, settings, strategies as st

from repro.evm.contracts import counter_contract, encode_call, storage_contract, token_contract
from repro.evm.transactions import Transaction
from repro.services.interface import BlockOperations, Operation
from repro.services.ledger import LedgerService, ledger_operation

ACCOUNTS = tuple("0x" + digit * 40 for digit in "abc")
CONTRACTS = (token_contract(), storage_contract(), counter_contract())
BALANCE = 1_000_000


def _genesis(diverged: bool = False) -> LedgerService:
    """Three funded accounts and the three reference contracts, installed
    directly (unjournaled, as a workload's genesis is)."""
    ledger = LedgerService()
    for account in ACCOUNTS:
        ledger.fund(account, BALANCE)
    for code in CONTRACTS:
        ledger.apply(Transaction.create(ACCOUNTS[0], code))
    if diverged:
        ledger.apply(Transaction.transfer(ACCOUNTS[1], ACCOUNTS[2], BALANCE // 2))
    return ledger


GENESIS_CONTRACTS = tuple(receipt.contract_address for receipt in _genesis().receipts)

accounts = st.sampled_from(ACCOUNTS)
values = st.sampled_from((0, 1, 700_000, 10 * BALANCE))  # the last two can overdraw
transfers = st.builds(Transaction.transfer, accounts, accounts, values)
calls = st.builds(
    Transaction.call,
    accounts,
    st.sampled_from(GENESIS_CONTRACTS + ACCOUNTS[:1]),
    st.builds(encode_call, st.integers(0, 3), st.integers(0, 4), st.integers(0, 900)),
    st.sampled_from((0, 10 * BALANCE)),
    st.sampled_from((1_000_000, 30)),  # 30 gas runs out inside any contract
)
deploys = st.builds(
    Transaction.create,
    accounts,
    st.builds(lambda code, copies: code * copies, st.sampled_from(CONTRACTS), st.integers(1, 10)),
)
operations = st.one_of(
    *(st.builds(ledger_operation, kind) for kind in (transfers, calls, deploys)),
    st.just(Operation(kind="ledger", payload="junk")),
)
blocks = st.lists(operations, min_size=1, max_size=12)


def _state(ledger):
    authkv = ledger._authkv
    return (
        list(authkv.store.data.items()),
        list(ledger.receipts),
        ledger._block_number,
        authkv.digest(),
        list(authkv._block_order),
    )


def _plain_loop(ledger, sequence, ops):
    """A fresh ledger executing ``ops`` one by one in the block's context,
    then journaling them: what the recorded entry must reproduce."""
    start = len(ledger.receipts)
    ledger._block_number += 1
    results = tuple(ledger.execute(op) for op in ops)
    tree, digest = ledger._authkv.journal_block(sequence, ops, results)
    cost = sum(ledger.transaction_cost(op, result) for op, result in zip(ops, results))
    return results, tuple(ledger.receipts[start:]), tree.leaves, digest, cost


@settings(max_examples=60, deadline=None)
@given(blocks)
def test_dry_run_entry_equals_a_plain_execute_loop(ops):
    block = BlockOperations(ops)
    ledger = _genesis()
    before = _state(ledger)
    cost = ledger.block_execution_cost(1, block)

    # The dry run changed nothing: contents (and their order), receipts,
    # block number, journal; the fingerprint it filled is the pre-state's.
    assert _state(ledger) == before
    authkv = ledger._authkv
    assert ledger._state_fingerprint == (authkv.contents_digest(), authkv.digest())

    results, receipts, _delta, entry_cost, (tree, digest) = block.replay[1]
    reference = _genesis()
    expected = _plain_loop(reference, 1, ops)
    assert (results, receipts, tree.leaves, digest, cost) == expected
    assert entry_cost == cost
    # Every transaction that ran pays the gas its receipt burned, deploys
    # over the old 60 000 gas cap in full.
    costs = ledger._costs
    for op, result in zip(ops, results):
        if result.value is not None:
            assert ledger.transaction_cost(op, result) == (
                costs.evm_base_execute + costs.evm_per_gas * result.value["gas_used"]
                + costs.persist_per_byte * op.payload.size_bytes
            )

    # Applying the entry leaves what the loop left, in the same dict order.
    assert ledger.execute_block(1, block) is results
    assert list(authkv.store.data.items()) == list(reference._authkv.store.data.items())
    assert ledger.digest() == reference.digest() == digest
    assert ledger.receipts == reference.receipts


#: Account b can pay 700 000 into the token contract at genesis, not once
#: diverged: the call runs the contract on one ledger and fails on the other.
OVERDRAWN_WHEN_DIVERGED = [ledger_operation(
    Transaction.call(ACCOUNTS[1], GENESIS_CONTRACTS[0], encode_call(1, 1, 5), value=700_000)
)]


@settings(max_examples=30, deadline=None)
@given(blocks)
@example(OVERDRAWN_WHEN_DIVERGED)
def test_a_ledger_at_another_pre_state_prices_the_block_itself(ops):
    block = BlockOperations(ops)
    first = _genesis()
    cost = first.block_execution_cost(1, block)
    recorded = block.replay

    diverged = _genesis(diverged=True)
    own_cost = diverged.block_execution_cost(1, block)
    assert block.replay is recorded  # the shared entry stays the first one's
    assert own_cost == _plain_loop(_genesis(diverged=True), 1, ops)[4]
    assert diverged.execute_block(1, block) == _plain_loop(_genesis(diverged=True), 1, ops)[0]
    assert first.block_execution_cost(1, block) == cost
    if ops == OVERDRAWN_WHEN_DIVERGED:
        assert own_cost < cost
