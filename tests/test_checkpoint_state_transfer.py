"""Tests for checkpointing, garbage collection, state transfer and EVM state."""

import pytest

from helpers import assert_agreement, run_small_cluster
from repro.errors import EVMError
from repro.evm.state import WorldState


# ----------------------------------------------------------------------
# SBFT checkpoint / stable-point behaviour
# ----------------------------------------------------------------------
def test_stable_point_advances_with_execution_certificates():
    cluster, result = run_small_cluster(
        "sbft-c0", f=1, num_clients=2, requests_per_client=8, batch_size=1,
        config_overrides={"window": 16},
    )
    for replica in cluster.replicas.values():
        assert replica.last_stable > 0
        assert replica.last_stable <= replica.last_executed


def test_checkpoint_protocol_used_without_execution_collectors():
    cluster, result = run_small_cluster(
        "linear-pbft", f=1, num_clients=2, requests_per_client=8, batch_size=1,
        config_overrides={"window": 8, "checkpoint_interval": 2},
    )
    types = result.per_type_messages
    assert types.get("checkpoint", 0) > 0
    assert types.get("stable-checkpoint", 0) > 0
    for replica in cluster.replicas.values():
        assert replica.last_stable > 0
    assert_agreement(cluster)


def test_log_is_bounded_by_garbage_collection():
    cluster, result = run_small_cluster(
        "sbft-c0", f=1, num_clients=2, requests_per_client=12, batch_size=1,
        config_overrides={"window": 8},
    )
    for replica in cluster.replicas.values():
        # The log never holds more than ~2 windows of slots.
        assert len(replica.log.slots()) <= 2 * replica.config.window


def test_state_transfer_request_response_roundtrip():
    cluster, result = run_small_cluster("sbft-c0", f=1, num_clients=2, requests_per_client=6)
    source = cluster.replicas[2]
    assert source.last_executed > 0

    # Simulate a fresh replica asking for state via the protocol handlers.
    from repro.core.messages import StateTransferRequest, StateTransferResponse

    target = cluster.replicas[3]
    captured = []
    target.network.add_tap(lambda src, dst, msg: captured.append((src, dst, msg)))
    source._on_state_transfer_request(StateTransferRequest(replica_id=3, from_sequence=0), src=3)
    responses = [msg for _s, d, msg in captured if d == 3 and isinstance(msg, StateTransferResponse)]
    assert responses
    response = responses[-1]
    assert response.up_to_sequence == source.last_executed

    # Applying the response brings a stale service up to the source's digest.
    stale = cluster.replicas[3]
    stale.last_executed = 0
    stale.service.restore(response.snapshot)
    stale._on_state_transfer_response(response, src=2)
    assert stale.last_executed == source.last_executed
    assert stale.service.digest() == source.service.digest()


def test_primary_respects_active_window_backpressure():
    cluster, result = run_small_cluster(
        "sbft-c0", f=1, num_clients=4, requests_per_client=6, batch_size=1,
        config_overrides={"window": 8},
    )
    assert result.run.completed_requests == 24
    primary = cluster.replicas[0]
    assert primary.stats["blocks_proposed"] >= 6
    assert_agreement(cluster)


# ----------------------------------------------------------------------
# EVM world state
# ----------------------------------------------------------------------
def test_world_state_account_lifecycle():
    world = WorldState()
    addr = "0x" + "ab" * 20
    assert world.get_balance(addr) == 0
    world.add_balance(addr, 100)
    world.sub_balance(addr, 30)
    assert world.get_balance(addr) == 70
    with pytest.raises(EVMError):
        world.sub_balance(addr, 1000)
    with pytest.raises(EVMError):
        world.set_balance(addr, -1)
    assert world.increment_nonce(addr) == 1
    assert world.get_nonce(addr) == 1 and world.get_code(addr) == b""


def test_world_state_code_and_storage_namespaces():
    world = WorldState()
    a, b = "0x" + "01" * 20, "0x" + "02" * 20
    world.set_code(a, b"\x60\x00")
    world.storage_store(a, 5, 42)
    world.storage_store(b, 5, 99)
    assert world.get_code(a) == b"\x60\x00"
    assert world.get_code(b) == b""
    assert world.storage_load(a, 5) == 42
    assert world.storage_load(b, 5) == 99


def test_contract_address_derivation_is_deterministic_and_unique():
    world = WorldState()
    creator = "0x" + "03" * 20
    first = world.derive_contract_address(creator, 1)
    again = WorldState().derive_contract_address(creator, 1)
    second = world.derive_contract_address(creator, 2)
    other = world.derive_contract_address("0x" + "04" * 20, 1)
    assert first == again
    assert len({first, second, other}) == 3
    assert first.startswith("0x") and len(first) == 42


def test_world_state_on_authenticated_backend_changes_digest():
    from repro.services.ledger import LedgerService

    ledger = LedgerService()
    ledger._world.add_balance("0x" + "05" * 20, 10)
    # Balances live in the backing (authenticated) store.
    assert ledger._authkv.store.data["acct/0x" + "05" * 20 + "/balance"] == 10
