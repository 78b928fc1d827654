"""A block is priced by a dry run: property-based differentials, per service.

``block_execution_cost`` runs a block over the store's overlay and records
the replay entry every replica then applies (``execute_block``).  For random
blocks the entry must equal what a plain ``execute`` loop over the same
pre-state does: the same results, contents in the same insertion order,
journal and digest (and, on the ledger, receipts), at the same price.  The
dry run must leave the pricing service as it was.

On the ledger the blocks are transfers, contract calls and deploys — deploys
whose creation gas is over 60 000 or that carry value, transactions that
fail (insufficient balance, out of gas) and payloads that are no transaction
— and a ledger at another pre-state must price the block by its own run.  On
the key-value store they are puts, gets and deletes over a few keys, some
already set (one to ``None``).
"""

from hypothesis import example, given, settings, strategies as st

from repro.evm.contracts import counter_contract, encode_call, storage_contract, token_contract
from repro.evm.transactions import Transaction
from repro.services.authenticated_kv import AuthenticatedKVStore
from repro.services.interface import BlockOperations, Operation
from repro.services.kvstore import KVOperation
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
    values,
)
operations = st.one_of(
    *(st.builds(ledger_operation, kind) for kind in (transfers, calls, deploys)),
    st.just(Operation(kind="ledger", payload="junk")),
)
blocks = st.lists(operations, min_size=1, max_size=12)


def _state(service):
    return (
        list(service._store._data.items()),
        list(getattr(service, "receipts", ())),
        service.digest(),
        list(service._block_order),
    )


def _journal(service, sequence, ops, results):
    """Journal an executed block: its record, appended."""
    record = service.journal_record(sequence, ops, results)
    service.replay_block(sequence, results, *record)
    return record


def _plain_loop(ledger, sequence, ops):
    """A fresh ledger executing ``ops`` one by one, then journaling them:
    what the recorded entry must reproduce.  (The loop runs at block number
    0, the dry run at 1; no contract here reads it.)"""
    start = len(ledger.receipts)
    results = tuple(ledger.execute(op) for op in ops)
    tree, digest = _journal(ledger, sequence, ops, results)
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
    # journal; the fingerprint it filled is the pre-state's.
    assert _state(ledger) == before
    assert ledger._state_fingerprint == (ledger._store.contents_digest(), ledger.digest())

    results, _delta, entry_cost, receipts, (tree, digest) = block.replay[1]
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
    assert list(ledger._store._data.items()) == list(reference._store._data.items())
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


def test_a_deploy_the_sender_cannot_fund_fails_without_code():
    """A deploy carrying more value than its sender holds is a failed receipt
    (21 000 gas, no code at the address, the nonce bumped, nothing moved),
    executed directly and in a dry run alike."""
    sender = ACCOUNTS[0]
    deploy = ledger_operation(Transaction.create(sender, counter_contract(), value=100))
    ledger = LedgerService()
    ledger.fund(sender, 10)
    result = ledger.execute(deploy)
    assert not result.ok and "insufficient balance" in result.error
    assert result.value == {"success": False, "gas_used": 21_000, "contract_address": None}
    world = ledger._world
    address = world.derive_contract_address(sender, 1)
    assert world.get_code(address) == b"" and world.get_nonce(sender) == 1
    assert (world.get_balance(sender), world.get_balance(address)) == (10, 0)

    planner = LedgerService()
    planner.fund(sender, 10)
    block = BlockOperations([deploy])
    planner.block_execution_cost(1, block)
    results, _delta, _price, receipts, _journal = block.replay[1]
    assert results == (result,) and receipts == tuple(ledger.receipts)
    assert planner.execute_block(1, block) is results
    assert list(planner._store._data.items()) == list(ledger._store._data.items())


# ----------------------------------------------------------------------
# The key-value store: the same dry run, reached through ``KVStore.execute``
# ----------------------------------------------------------------------
KEYS = ("a", "b", "c", "d")
PRE_STATE = (("a", 1), ("b", None), ("c", 2))  # "d" unset, "b" set to None


def _kv_genesis() -> AuthenticatedKVStore:
    store = AuthenticatedKVStore()
    for key, value in PRE_STATE:
        store.execute(put(key, value))
    return store


put, get, delete = AuthenticatedKVStore.make_put, AuthenticatedKVStore.make_get, KVOperation.delete
keys = st.sampled_from(KEYS)
kv_blocks = st.lists(
    st.one_of(
        st.builds(put, keys, st.one_of(st.none(), st.integers(0, 3))),
        st.builds(get, keys),
        st.builds(delete, keys),
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=100, deadline=None)
@given(kv_blocks)
@example([delete("a"), put("a", 5), get("a")])  # a delete, then a put on a key that exists
@example([delete("b"), get("b"), delete("b")])  # a get after a delete in the same block
@example([put("d", 1), put("d", 2), put("a", 3)])  # two puts to the same key
def test_kv_dry_run_entry_equals_a_plain_execute_loop(ops):
    block = BlockOperations(ops)
    store = _kv_genesis()
    before = _state(store)
    price = store.block_execution_cost(1, block)
    assert _state(store) == before

    results, _delta, entry_price, receipts, (tree, digest) = block.replay[1]
    reference = _kv_genesis()
    expected = tuple(reference._store.execute(op) for op in ops)
    expected_tree, expected_digest = _journal(reference, 1, ops, expected)
    assert results == expected
    assert (tree.leaves, digest) == (expected_tree.leaves, expected_digest)
    assert entry_price == price == sum(map(reference.execution_cost, ops))
    assert receipts == ()

    assert store.execute_block(1, block) is results
    assert list(store._store._data.items()) == list(reference._store._data.items())
    assert store.digest() == reference.digest() == digest
