"""Collection at the stable point (docs/architecture.md, "Collected at the
stable point").

``Replica._collect`` forgets every sequence below ``min(last_stable,
last_executed)``: its log slot, its journal block and the per-sequence
tallies.  A late message for a collected sequence finds no slot
(``ReplicaLog.slot`` returns ``None``) and changes nothing; an E-collector
keeps an executed slot until its acks are out, so a π proof that comes after
a later one made the point stable still reaches the client; and what a
replica holds stops growing with the length of the run.
"""

import pytest

from helpers import make_bare_replica, make_request, on_execute, run_small_cluster
from repro.core.config import SBFTConfig
from repro.core.keys import TrustedSetup
from repro.core.messages import (
    ExecuteAck,
    FullCommitProof,
    FullExecuteProof,
    PrePrepare,
    SignShare,
    SignState,
)
from repro.core.replica import SBFTReplica
from repro.core.roles import commit_collectors, execution_collectors
from repro.core.viewchange import ACTION_COMMIT, NewViewPlan, SlotDecision
from repro.crypto.hashing import block_digest
from repro.pbft.messages import PbftCheckpoint, PbftCommit, PbftPrepare
from repro.pbft.replica import PBFTReplica

SBFT = SBFTConfig(f=1, c=1, batch_size=1)   # n = 6, two collectors per slot
ME = 5                                      # C- and E-collector of sequence 1 in view 0
CLIENT_NODE = SBFT.n + 1


def _bare(cls, config, node_id):
    """-> (sim, replica, sent): every unicast lands in ``sent`` as
    ``(dst, message)``, every broadcast as ``(None, message)``."""
    sim, _network, replica = make_bare_replica(cls, config, node_id=node_id)
    replica.client_directory[0] = CLIENT_NODE
    sent = []
    replica._broadcast = lambda message: sent.append((None, message))
    replica._send = lambda dst, message: sent.append((dst, message))
    return sim, replica, sent


def _block(sequence, view=0):
    requests = (make_request(sequence),)
    digest = block_digest(sequence, view, [request.request_id for request in requests])
    return PrePrepare(sequence=sequence, view=view, requests=requests, digest=digest, primary_signature=None)


def _fast_proof(replica, block):
    sigma, signed = replica.keys.sigma, ("sign", block.sequence, block.view, block.digest)
    proof = sigma.combine([sigma.sign_share(i, signed) for i in range(SBFT.sigma_threshold)])
    return FullCommitProof(sequence=block.sequence, view=block.view, digest=block.digest, sigma_signature=proof)


def _state_shares(replica, sequence, signers):
    digest = replica.log.peek(sequence).state_digest
    pi, signed = replica.keys.pi, ("state", sequence, digest)
    return [(SignState(sequence=sequence, replica_id=i, state_digest=digest,
                       pi_share=pi.sign_share(i, signed)), i) for i in signers]


def _execute_proof(replica, sequence):
    digest = replica.log.peek(sequence).state_digest
    pi, signed = replica.keys.pi, ("state", sequence, digest)
    proof = pi.combine([pi.sign_share(i, signed) for i in range(SBFT.pi_threshold)])
    return FullExecuteProof(sequence=sequence, state_digest=digest, pi_signature=proof)


def _commit_and_execute(sim, replica, blocks):
    for block in blocks:
        replica._dispatch(block, 0)
        replica._dispatch(_fast_proof(replica, block), 0)
        sim.run(until=sim.now + 0.01)
        assert replica.last_executed == block.sequence


def _observe(replica, sent):
    return (len(sent), dict(replica.stats), replica.cpu.total_busy_time, sorted(replica._timers),
            sorted(replica.log._slots), replica.log.low, replica.last_stable)


def _collected_sbft_replica():
    """Replica ``ME`` after blocks 1-3 executed and were π-proven in order:
    the point is stable at 3, so sequences 1 and 2 are collected."""
    assert ME in commit_collectors(1, 0, SBFT.n, SBFT.collectors_per_slot)
    assert ME in execution_collectors(1, 0, SBFT.n, SBFT.collectors_per_slot)
    sim, replica, sent = _bare(SBFTReplica, SBFT, ME)
    blocks = [_block(sequence) for sequence in (1, 2, 3)]
    _commit_and_execute(sim, replica, blocks)
    proofs = [(_execute_proof(replica, sequence), 0) for sequence in (1, 2, 3)]
    for message, src in proofs:
        replica._dispatch(message, src)
    assert [type(m) for _dst, m in sent if isinstance(m, ExecuteAck)] == [ExecuteAck]  # slot 1's ack
    assert (replica.last_stable, replica.log.low, sorted(replica.log._slots)) == (3, 2, [3])
    return sim, replica, sent, blocks, proofs


def test_late_sbft_messages_for_a_collected_sequence_are_no_ops():
    sim, replica, sent, blocks, proofs = _collected_sbft_replica()
    block = blocks[0]
    signed = ("sign", 1, 0, block.digest)
    late = [
        (SignShare(sequence=1, view=0, replica_id=2, digest=block.digest,
                   sigma_share=replica.keys.sigma.sign_share(2, signed),
                   tau_share=replica.keys.tau.sign_share(2, signed)), 2),
        (_fast_proof(replica, block), 0),          # a duplicate commit proof
        proofs[0],                                 # a duplicate execute proof
        (SignState(sequence=1, replica_id=3, state_digest="s",
                   pi_share=replica.keys.pi.sign_share(3, ("state", 1, "s"))), 3),
    ]
    before = _observe(replica, sent)
    for message, src in late:
        replica._dispatch(message, src)
        assert replica.log.peek(1) is None
    assert _observe(replica, sent) == before
    assert 1 not in replica.service._journal_trees and 2 not in replica.service._journal_trees


def test_a_new_view_decision_for_a_collected_sequence_changes_nothing():
    """Entering a view whose plan commits a collected sequence does what
    entering it without that decision does."""
    seen = []
    for with_decision in (True, False):
        sim, replica, sent, blocks, _proofs = _collected_sbft_replica()
        block = blocks[0]
        decisions = {1: SlotDecision(sequence=1, action=ACTION_COMMIT, digest=block.digest,
                                     requests=block.requests,
                                     certificate=_fast_proof(replica, block).sigma_signature,
                                     via_fast_path=True)} if with_decision else {}
        del sent[:]
        replica._enter_view(1, NewViewPlan(view=1, last_stable=0, decisions=decisions))
        assert replica.log.peek(1) is None
        seen.append((_observe(replica, sent), [type(m).__name__ for m in sent], replica.next_sequence))
    assert seen[0] == seen[1]


PBFT = SBFTConfig(f=1, c=0, window=4, checkpoint_interval=4)  # n = 4, quorum 3
PBFT_KEYS = TrustedSetup(PBFT, seed=2)                       # the keys make_bare_replica deals
OTHERS = (0, 2, 3)                                           # replica 1 is a view-0 backup


def _signed(cls, *fields):
    *body, replica_id = fields
    phase = {PbftPrepare: "prepare", PbftCommit: "commit", PbftCheckpoint: "checkpoint"}[cls]
    signature = PBFT_KEYS.replica_keys(replica_id).signing_key.sign((phase, *body))
    return cls(*fields, signature), replica_id


def test_late_pbft_votes_for_a_collected_sequence_are_no_ops():
    """PBFT keeps the window below its stable point (its view change carries
    those slots); below that window a late prepare, commit or checkpoint
    finds nothing."""
    sim, replica, sent = _bare(PBFTReplica, PBFT, node_id=1)
    for sequence in range(1, 9):
        block = _block(sequence)
        replica._dispatch(block, 0)
        for cls in (PbftPrepare, PbftCommit):
            for i in OTHERS:
                replica._dispatch(*_signed(cls, sequence, 0, block.digest, i))
        sim.run(until=sim.now + 0.01)
        assert replica.last_executed == sequence
        if sequence % PBFT.checkpoint_every == 0:
            digest = replica.log.peek(sequence).state_digest
            for i in OTHERS:
                replica._dispatch(*_signed(PbftCheckpoint, sequence, digest, i))
    # Stable at 8: below 8 - window everything goes, 5-7 stay.
    assert (replica.last_stable, replica.log.low) == (8, 7)
    assert sorted(replica.log._slots) == [5, 6, 7, 8] and list(replica._checkpoints) == [8]
    old = _block(1)
    late = [_signed(PbftPrepare, 1, 0, old.digest, 2), _signed(PbftCommit, 1, 0, old.digest, 3),
            _signed(PbftCheckpoint, 4, replica.log.peek(8).state_digest, 0)]
    before = _observe(replica, sent)
    for message, src in late:
        replica._dispatch(message, src)
    assert _observe(replica, sent) == before
    assert replica.log.peek(1) is None and list(replica._checkpoints) == [8]
    assert sorted(replica.service._journal_trees) == [5, 6, 7, 8]


# ----------------------------------------------------------------------
# The E-collector race
# ----------------------------------------------------------------------
def test_an_e_collector_acks_a_block_proven_after_a_later_one_made_it_stable():
    """π(2) reaches the E-collector of 1 before its own π(1) quorum: the
    point is stable at 2, yet slot 1 (executed, acks owed) and its journal
    block stay, and the acks go out when the quorum completes.  The next
    collection takes both."""
    sim, replica, sent = _bare(SBFTReplica, SBFT, ME)
    blocks = [_block(sequence) for sequence in (1, 2, 3)]
    _commit_and_execute(sim, replica, blocks[:2])
    replica._dispatch(_execute_proof(replica, 2), 0)
    assert (replica.last_stable, replica.log.low) == (2, 1)
    slot = replica.log.peek(1)
    assert slot is not None and slot.execute_proof is None and not slot.acks_sent
    assert 1 in replica.service._journal_trees
    for message, src in _state_shares(replica, 1, (1, 2)):
        replica._dispatch(message, src)
    (ack,) = [m for _dst, m in sent if isinstance(m, ExecuteAck)]
    assert ack.sequence == 1 and ack.state_digest == slot.state_digest and slot.acks_sent
    operation = blocks[0].requests[0].operations[0]
    assert replica.service.verify(ack.state_digest, operation, ack.values[0], 1, 0, ack.proof)
    _commit_and_execute(sim, replica, blocks[2:])
    replica._dispatch(_execute_proof(replica, 3), 0)
    assert replica.log.peek(1) is None and sorted(replica.service._journal_trees) == [3]


def test_a_replica_no_e_collector_of_the_sequence_collects_it_at_once():
    other = 2
    assert other not in execution_collectors(1, 0, SBFT.n, SBFT.collectors_per_slot)
    sim, replica, sent = _bare(SBFTReplica, SBFT, other)
    _commit_and_execute(sim, replica, [_block(1), _block(2)])
    replica._dispatch(_execute_proof(replica, 2), 0)
    assert replica.log.peek(1) is None and sorted(replica.service._journal_trees) == [2]


# ----------------------------------------------------------------------
# Bounded memory (ROADMAP items 4 and 18)
# ----------------------------------------------------------------------
def _maxima(protocol, requests_per_client):
    """Per replica, the most log slots and journal blocks it held after any
    block it executed."""
    maxima = {}

    def watch(replica, sequence, digest):
        held = (len(replica.log._slots), len(replica.service._block_order))
        maxima[replica.node_id] = tuple(map(max, maxima.get(replica.node_id, (0, 0)), held))

    c = 1 if protocol == "sbft-c8" else None
    cluster, result = run_small_cluster(
        protocol, f=1, c=c, num_clients=2, requests_per_client=requests_per_client,
        config_overrides={"window": 8, "checkpoint_interval": 2},
        post_build=lambda cluster: on_execute(cluster, watch),
    )
    assert result.run.completed_requests == 2 * requests_per_client
    return maxima


@pytest.mark.parametrize("protocol", ["sbft-c0", "sbft-c8", "pbft"])
def test_slots_and_journal_blocks_stop_growing_with_the_run(protocol):
    short, long = _maxima(protocol, 30), _maxima(protocol, 60)
    assert short == long
    # ROADMAP item 18: at most window + checkpoint period + 1 of either.
    assert max(max(held) for held in long.values()) <= 8 + 2 + 1
