"""A replica's second core: block execution beside message handling.

``Replica._try_execute`` puts a committed block's execution cost on
``exec_cpu`` (one block at a time, in sequence order) and ``_finish_execution``
runs as that core's ``Process._computed`` completion; every message is still
verified and dispatched on ``cpu``.  Each test runs once per protocol class on
a bare replica (``tests/helpers.make_bare_replica``), with a block whose
execution takes ``LONG`` simulated seconds.
"""

import pytest

from helpers import make_bare_replica, make_request
from repro.core.config import SBFTConfig
from repro.core.messages import StateTransferResponse
from repro.core.replica import SBFTReplica
from repro.pbft.replica import PBFTReplica
from repro.services.authenticated_kv import AuthenticatedKVStore
from repro.sim.faults import FaultInjector, FaultPlan

CONFIG = SBFTConfig(f=1, batch_size=4, batch_timeout=0.01, window=16, client_retry_timeout=1.5)
CLIENT_NODE = CONFIG.n + 1
#: Simulated execution cost of one operation (an EVM-sized block).
LONG = 0.07


@pytest.fixture(params=[SBFTReplica, PBFTReplica], ids=lambda cls: cls.__name__)
def replica_cls(request):
    return request.param


def _replica(replica_cls, node_id=1):
    """-> (sim, replica, executed): a bare replica whose one-operation blocks
    each cost ``LONG`` + a hash to execute; ``executed`` collects
    ``(sequence, time)`` per executed block.  Nothing leaves the replica."""
    sim, _network, replica = make_bare_replica(replica_cls, CONFIG, node_id=node_id)
    replica._broadcast = lambda message: None
    replica._send = lambda dst, message: None
    replica.service.execution_cost = lambda operation: LONG
    executed = []
    replica.execution_observer = lambda node, sequence, digest: executed.append((sequence, sim.now))
    return sim, replica, executed


def _block_cost(replica):
    return LONG + replica.costs.hash_op


def _commit(replica, sequence, timestamp):
    """Mark ``sequence`` committed with a one-request block (agreement skipped)."""
    slot = replica.log.slot(sequence)
    slot.pre_prepare = replica._signed_pre_prepare(sequence, (make_request(timestamp),))
    slot.committed = True


def _spy_finish(replica, sim):
    """Record ``(sequence, time)`` per ``_finish_execution`` the core runs."""
    calls, finish = [], replica._finish_execution

    def spy(sequence):
        calls.append((sequence, sim.now))
        finish(sequence)

    replica._finish_execution = spy
    return calls


def test_a_client_request_is_dispatched_while_a_long_block_executes(replica_cls):
    sim, replica, executed = _replica(replica_cls, node_id=0)
    _commit(replica, 1, timestamp=100)
    replica._try_execute()
    request = make_request(1)
    arrival = LONG / 4
    sim.schedule(arrival, replica.deliver, request, CLIENT_NODE)
    sim.run(until=LONG / 2)
    assert replica._executing == 1 and not executed                 # still executing block 1
    assert replica._request_first_seen[request.request_id] == pytest.approx(
        arrival + replica.costs.rsa_verify
    )
    sim.run()
    assert executed == [(1, pytest.approx(_block_cost(replica)))]


def test_committed_blocks_execute_one_at_a_time_in_sequence_order(replica_cls):
    sim, replica, executed = _replica(replica_cls)
    _commit(replica, 2, timestamp=2)                                # committed out of order
    _commit(replica, 1, timestamp=1)
    replica._try_execute()
    replica._try_execute()                                          # one block in flight at most
    assert replica._executing == 1
    sim.run()
    cost = _block_cost(replica)
    assert executed == [(1, pytest.approx(cost)), (2, pytest.approx(2 * cost))]
    assert replica.exec_cpu.total_busy_time == pytest.approx(2 * cost)
    assert replica.last_executed == 2 and replica._executing is None


def test_a_crash_mid_execution_never_finishes_the_block_and_a_restart_resumes(replica_cls):
    sim, replica, executed = _replica(replica_cls)
    finished = _spy_finish(replica, sim)
    _commit(replica, 1, timestamp=1)
    replica._try_execute()
    sim.schedule(LONG / 2, replica.crash)
    sim.run(until=2 * LONG)                                         # past the block's completion
    assert finished == [] and executed == [] and replica.last_executed == 0
    assert replica.log.peek(1).executed is False

    restart = sim.now
    replica.rejoin()
    assert replica._executing == 1                                  # the same block, from scratch
    sim.run()
    cost = _block_cost(replica)
    assert finished == executed == [(1, pytest.approx(restart + cost))]
    assert replica.last_executed == 1 and replica.stats["blocks_executed"] == 1
    assert replica.exec_cpu.total_busy_time == pytest.approx(2 * cost)


def test_slow_scales_the_execution_core_and_heal_restores_it(replica_cls):
    sim, replica, executed = _replica(replica_cls)
    plan = FaultPlan.slow([replica.node_id], factor=3.0, at_time=0.0).extend(
        FaultPlan.heal([replica.node_id], at_time=1.0)
    )
    FaultInjector(sim, {replica.node_id: replica}).apply(plan)
    sim.run(until=0.5)
    assert replica.cpu.speed_factor == replica.exec_cpu.speed_factor == 3.0
    _commit(replica, 1, timestamp=1)
    replica._try_execute()
    sim.run(until=1.5)
    assert replica.cpu.speed_factor == replica.exec_cpu.speed_factor == 1.0
    _commit(replica, 2, timestamp=2)
    replica._try_execute()
    sim.run()
    cost = _block_cost(replica)
    assert executed == [(1, pytest.approx(0.5 + 3 * cost)), (2, pytest.approx(1.5 + cost))]


def test_a_state_transfer_landing_mid_execution_starts_the_next_block_once(replica_cls):
    """The transfer skips past the block in flight and starts the next slot;
    the skipped block's completion is stale and must neither clear the new
    flag nor start that slot a second time (charging it twice)."""
    sim, replica, executed = _replica(replica_cls)
    finished = _spy_finish(replica, sim)
    _commit(replica, 1, timestamp=1)
    _commit(replica, 6, timestamp=6)
    replica._try_execute()
    transfer = StateTransferResponse(
        up_to_sequence=5, state_digest="", snapshot=AuthenticatedKVStore().snapshot()
    )
    sim.schedule(LONG / 2, replica._on_state_transfer_response, transfer, 2)
    sim.run(until=LONG * 3 / 4)
    assert replica.last_executed == 5 and replica._executing == 6
    sim.run()
    cost = _block_cost(replica)
    # Block 6 queued behind block 1's remaining work on the execution core.
    assert finished == [(1, pytest.approx(cost)), (6, pytest.approx(2 * cost))]
    assert executed == [(6, pytest.approx(2 * cost))]
    assert replica.exec_cpu.total_busy_time == pytest.approx(2 * cost)
    assert replica.last_executed == 6 and replica._executing is None
