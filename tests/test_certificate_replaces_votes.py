"""A certificate replaces its votes (docs/architecture.md, same section).

Once a collector sends the proof a quorum of shares formed — or a PBFT
replica is prepared / committed / checkpoint-stable on a digest — that
bucket of its :class:`repro.core.log.Tally` is closed: the votes are dropped
and any later vote counts as a repeat.  Every close point sits behind a guard
that already ignored further votes, so closing must change nothing a replica
sends, counts, arms or is charged; a slot re-proposed in a later view counts
afresh; and only a slot's collectors ever allocate a share tally.
"""

import pytest
from hypothesis import given, strategies as st

from helpers import make_bare_replica, make_request, run_small_cluster
from repro.core.config import SBFTConfig
from repro.core.keys import TrustedSetup
from repro.core.log import CLOSED, Tally
from repro.core.messages import (
    CheckpointMsg,
    Commit,
    FullCommitProof,
    FullCommitProofSlow,
    FullExecuteProof,
    Prepare,
    PrePrepare,
    SignShare,
    SignState,
    StableCheckpoint,
)
from repro.core.replica import SBFTReplica
from repro.core.roles import execution_collectors
from repro.core.viewchange import ACTION_ADOPT, NewViewPlan, SlotDecision
from repro.crypto.hashing import block_digest
from repro.pbft.messages import PbftCheckpoint, PbftCommit, PbftNewView, PbftPrepare, PbftViewChange
from repro.pbft.replica import PBFTReplica

CONFIG = SBFTConfig(f=1, batch_size=2, batch_timeout=0.01, fast_path_timeout=0.05)  # n = 4, c = 0
CLIENT_NODE = CONFIG.n + 1
LIVE = (0, 1, 2)  # a τ quorum; replica 3 is silent


def _state(tally):
    """``value -> "closed"`` or its voters in arrival order."""
    return {value: "closed" if bucket is CLOSED else list(bucket) for value, bucket in tally.items()}


def keep_every_slot(cluster):
    """``Cluster.post_build`` hook: every slot a replica's log creates is
    also kept in ``cluster.slots_made[node]``, the ones the stable point
    has collected since included."""
    cluster.slots_made = {}
    for node, replica in cluster.replicas.items():
        made = cluster.slots_made[node] = []

        def factory(sequence, make=replica.log._slot_factory, made=made):
            made.append(make(sequence))
            return made[-1]

        replica.log._slot_factory = factory


def _buckets(cluster, node):
    """``(slot, value, bucket)`` for every bucket of every slot the replica made."""
    replica = cluster.replicas[node]
    for slot in cluster.slots_made[node]:
        tallies = (slot.prepares, slot.commits) if isinstance(replica, PBFTReplica) else (slot.shares or {},)
        for tally in tallies:
            for value, bucket in tally.items():
                yield slot, value, bucket


@pytest.mark.parametrize("protocol, f", [("pbft", 1), ("sbft-c0", 1), ("sbft-c8", 2)])
@pytest.mark.parametrize("seed", [0, 3])
def test_no_committed_slot_keeps_a_share_or_vote(protocol, f, seed):
    cluster, result = run_small_cluster(protocol, f=f, topology="continent", seed=seed,
                                        post_build=keep_every_slot)
    assert result.run.completed_requests == 12
    cluster.sim.run(until=cluster.sim.now + 2.0)   # the shares still in flight land
    buckets = [(node, *entry) for node in cluster.replicas for entry in _buckets(cluster, node)]
    assert [(node, slot.sequence, value) for node, slot, value, bucket in buckets
            if slot.committed and bucket is not CLOSED] == []
    assert buckets


@pytest.mark.parametrize("protocol, f", [("sbft-c0", 1), ("sbft-c8", 2)])
def test_a_replica_outside_a_slots_collectors_holds_no_tally_for_it(protocol, f):
    cluster, _result = run_small_cluster(protocol, f=f, topology="continent", seed=1,
                                         post_build=keep_every_slot)
    outsiders = collectors = 0
    for node, replica in cluster.replicas.items():
        assert replica.view == 0
        for slot in cluster.slots_made[node]:
            group = replica._c_collectors(slot.sequence, 0) + replica._e_collectors(slot.sequence, 0)
            if node in group:
                collectors += slot.shares is not None
            else:
                outsiders += 1
                assert slot.shares is None, (node, slot.sequence)
    assert outsiders > 0 and collectors > 0


# ----------------------------------------------------------------------
# Bare replicas: a closed bucket's votes delivered again change nothing
# ----------------------------------------------------------------------
def _bare(cls, config, node_id):
    """-> (sim, replica, sent): every broadcast and unicast lands in ``sent``."""
    sim, _network, replica = make_bare_replica(cls, config, node_id=node_id)
    replica.client_directory[0] = CLIENT_NODE
    sent = []
    replica._broadcast = sent.append
    replica._send = lambda dst, message: sent.append((dst, message))
    return sim, replica, sent


def _snapshot(replica, sent):
    return (list(sent), dict(replica.stats), replica.cpu.total_busy_time,
            replica.exec_cpu.total_busy_time, sorted(replica._timers), replica.last_stable)


def _deliver(replica, messages):
    for message, src in messages:
        replica._dispatch(message, src)


def _assert_replay_is_inert(replica, sent, delivered):
    before = _snapshot(replica, sent)
    _deliver(replica, delivered)
    assert _snapshot(replica, sent) == before


def _last(sent, cls):
    return [m for m in sent if isinstance(m, cls)][-1]


def _propose(replica, sent, timestamp=1):
    """Two client requests -> the view-0 primary's block, delivered to itself."""
    for ts in (timestamp, timestamp + 1):
        replica._on_client_request(make_request(ts), src=CLIENT_NODE)
    pre_prepare = _last(sent, PrePrepare)
    replica._on_pre_prepare(pre_prepare, src=replica.node_id)
    return pre_prepare


def _sign_shares(replica, sequence, view, digest, signers):
    signed = ("sign", sequence, view, digest)
    return [(SignShare(sequence=sequence, view=view, replica_id=i, digest=digest,
                       sigma_share=replica.keys.sigma.sign_share(i, signed),
                       tau_share=replica.keys.tau.sign_share(i, signed)), i) for i in signers]


def test_sbft_fast_proof_closes_sigma_and_tau_and_their_shares_replayed_are_inert():
    sim, replica, sent = _bare(SBFTReplica, CONFIG, node_id=0)
    pre_prepare = _propose(replica, sent)
    signed = ("sign", 1, 0, pre_prepare.digest)
    shares = _sign_shares(replica, 1, 0, pre_prepare.digest, range(CONFIG.n))
    _deliver(replica, shares)
    assert _last(sent, FullCommitProof).digest == pre_prepare.digest
    slot = replica.log.slot(1)
    assert _state(slot.shares) == {("sigma", signed): "closed", ("tau", signed): "closed"}
    _assert_replay_is_inert(replica, sent, shares)


def test_sbft_prepare_closes_tau_only_and_the_slow_proof_closes_the_commit_bucket():
    sim, replica, sent = _bare(SBFTReplica, CONFIG, node_id=0)
    pre_prepare = _propose(replica, sent)
    digest = pre_prepare.digest
    signed, commit_signed = ("sign", 1, 0, digest), ("commit", 1, 0, digest)
    shares = _sign_shares(replica, 1, 0, digest, LIVE)
    _deliver(replica, shares)
    sim.run(until=sim.now + 0.06)                     # the σ wait runs out
    assert _last(sent, Prepare).digest == digest
    slot = replica.log.slot(1)
    assert slot.shares.get(("tau", signed)) is CLOSED
    assert list(slot.shares.votes(("sigma", signed))) == list(LIVE)   # σ stays open
    commits = [(Commit(sequence=1, view=0, replica_id=i, digest=digest,
                       tau_share_on_tau=replica.keys.tau.sign_share(i, commit_signed)), i) for i in LIVE]
    _deliver(replica, commits)
    assert _last(sent, FullCommitProofSlow).digest == digest
    assert slot.shares.get(("tau", commit_signed)) is CLOSED
    _assert_replay_is_inert(replica, sent, shares + commits)
    # A late σ share still completes the fast proof, which closes σ as well.
    _deliver(replica, _sign_shares(replica, 1, 0, digest, [3]))
    assert _last(sent, FullCommitProof).digest == digest
    assert slot.shares.get(("sigma", signed)) is CLOSED


def test_sbft_execute_proof_closes_the_pi_bucket_and_its_shares_replayed_are_inert():
    collector = execution_collectors(1, 0, CONFIG.n, CONFIG.collectors_per_slot)[0]
    sim, replica, sent = _bare(SBFTReplica, CONFIG, node_id=collector)
    signed = ("state", 1, "s")
    states = [(SignState(sequence=1, replica_id=i, state_digest="s",
                         pi_share=replica.keys.pi.sign_share(i, signed)), i) for i in (0, 1)]
    _deliver(replica, states)                         # π threshold is f+1
    assert replica.keys.pi.verify_message(_last(sent, FullExecuteProof).pi_signature, signed)
    assert _state(replica.log.slot(1).shares) == {("pi", signed): "closed"}
    _assert_replay_is_inert(replica, sent, states)


def test_sbft_a_peers_execute_proof_closes_a_short_pi_bucket():
    collectors = execution_collectors(1, 0, CONFIG.n, CONFIG.collectors_per_slot)
    sim, replica, sent = _bare(SBFTReplica, CONFIG, node_id=collectors[0])
    pi, signed = replica.keys.pi, ("state", 1, "s")
    replica._dispatch(SignState(sequence=1, replica_id=3, state_digest="s",
                                pi_share=pi.sign_share(3, signed)), 3)
    assert list(replica.log.slot(1).shares.votes(("pi", signed))) == [3]
    proof = pi.combine([pi.sign_share(i, signed) for i in (0, 1)])
    replica._dispatch(FullExecuteProof(sequence=1, state_digest="s", pi_signature=proof), 0)
    assert _state(replica.log.slot(1).shares) == {("pi", signed): "closed"}
    late = [(SignState(sequence=1, replica_id=i, state_digest="s", pi_share=pi.sign_share(i, signed)), i)
            for i in (0, 1, 2)]
    _assert_replay_is_inert(replica, sent, late)
    assert not any(isinstance(m, FullExecuteProof) for m in sent)


def test_sbft_a_stable_checkpoint_closes_its_bucket_and_its_shares_replayed_are_inert():
    config = SBFTConfig(f=1, execution_collectors_enabled=False)
    sim, replica, sent = _bare(SBFTReplica, config, node_id=2)
    sequence = config.checkpoint_every
    signed = ("checkpoint", sequence, "s")
    votes = [(CheckpointMsg(sequence=sequence, replica_id=i, state_digest="s",
                            pi_share=replica.keys.pi.sign_share(i, signed)), i) for i in (0, 1)]
    _deliver(replica, votes)
    assert _last(sent, StableCheckpoint).sequence == sequence == replica.last_stable
    assert list(replica._checkpoint_shares) == [sequence]
    assert _state(replica._checkpoint_shares[sequence]) == {("pi", signed): "closed"}
    _assert_replay_is_inert(replica, sent, votes)


PBFT = SBFTConfig(f=1, c=0)  # n = 4, quorum 3
PBFT_KEYS = TrustedSetup(PBFT, seed=2)  # the keys make_bare_replica deals
ME = 1                                  # a view-0 backup, the view-1 primary


def _pbft_pre_prepare(view, requests):
    digest = block_digest(1, view, [request.request_id for request in requests])
    return PrePrepare(sequence=1, view=view, requests=requests, digest=digest, primary_signature=None)


def _pbft_vote(cls, replica_id, view, digest):
    phase = "prepare" if cls is PbftPrepare else "commit"
    signature = PBFT_KEYS.replica_keys(replica_id).signing_key.sign((phase, 1, view, digest))
    return cls(1, view, digest, replica_id, signature), replica_id


def test_pbft_prepared_committed_and_stable_close_their_buckets_and_replays_are_inert():
    sim, replica, sent = _bare(PBFTReplica, PBFT, node_id=ME)
    block = _pbft_pre_prepare(0, (make_request(1),))
    replica._dispatch(block, 0)
    others = [i for i in range(PBFT.n) if i != ME]
    prepares = [_pbft_vote(PbftPrepare, i, 0, block.digest) for i in others]
    commits = [_pbft_vote(PbftCommit, i, 0, block.digest) for i in others]
    _deliver(replica, prepares + commits)
    slot = replica.log.slot(1)
    assert slot.commit_sent and slot.committed
    assert _state(slot.prepares) == _state(slot.commits) == {block.digest: "closed"}
    sequence = PBFT.checkpoint_every
    checkpoints = [
        (PbftCheckpoint(sequence, "s", i, PBFT_KEYS.replica_keys(i).signing_key.sign(("checkpoint", sequence, "s"))), i)
        for i in others
    ]
    _deliver(replica, checkpoints)
    assert replica.last_stable == sequence and list(replica._checkpoints) == [sequence]
    assert _state(replica._checkpoints[sequence]) == {"s": "closed"}
    _assert_replay_is_inert(replica, sent, prepares + commits + checkpoints)


# ----------------------------------------------------------------------
# A slot re-proposed in a later view counts its votes afresh
# ----------------------------------------------------------------------
def test_sbft_a_re_proposal_opens_fresh_buckets_for_its_view():
    sim, replica, sent = _bare(SBFTReplica, CONFIG, node_id=0)
    block = _propose(replica, sent)
    _deliver(replica, _sign_shares(replica, 1, 0, block.digest, LIVE))
    sim.run(until=sim.now + 0.06)                     # view 0 prepares, never commits
    old = ("sign", 1, 0, block.digest)
    assert replica.log.slot(1).shares.get(("tau", old)) is CLOSED
    view = CONFIG.n                                   # replica 0 leads again
    decision = SlotDecision(sequence=1, action=ACTION_ADOPT, digest=block.digest, requests=block.requests)
    replica._enter_view(view, NewViewPlan(view=view, last_stable=0, decisions={1: decision}))
    re_proposal = _last(sent, PrePrepare)
    assert re_proposal.view == view
    replica._dispatch(re_proposal, 0)
    new = ("sign", 1, view, re_proposal.digest)
    shares = _sign_shares(replica, 1, view, re_proposal.digest, LIVE)
    _deliver(replica, shares[:1])
    slot = replica.log.slot(1)
    assert list(slot.shares.votes(("tau", new))) == [0] and slot.shares.get(("tau", old)) is CLOSED
    _deliver(replica, shares[1:])                     # degraded after the view change: no σ wait
    assert (_last(sent, Prepare).view, _last(sent, Prepare).digest) == (view, re_proposal.digest)
    assert slot.shares.get(("tau", new)) is CLOSED


def test_pbft_a_re_proposal_opens_fresh_buckets_for_its_view():
    sim, replica, sent = _bare(PBFTReplica, PBFT, node_id=ME)
    block = _pbft_pre_prepare(0, (make_request(1),))
    replica._dispatch(block, 0)
    _deliver(replica, [_pbft_vote(PbftPrepare, i, 0, block.digest) for i in (0, 2)])
    slot = replica.log.slot(1)
    assert slot.commit_sent and not slot.committed and _state(slot.prepares) == {block.digest: "closed"}
    claim = PbftViewChange(new_view=1, replica_id=3, last_stable=0,
                           prepared=((1, 0, block.digest, block.requests),))
    replica._dispatch(PbftNewView(view=1, view_changes=(claim,) * replica.quorum), 1)
    re_proposal = _last(sent, PrePrepare)
    assert re_proposal.view == 1
    replica._dispatch(re_proposal, ME)
    replica._dispatch(*_pbft_vote(PbftPrepare, 0, 1, re_proposal.digest))
    assert _state(slot.prepares) == {re_proposal.digest: [0]} and not slot.commit_sent
    replica._dispatch(*_pbft_vote(PbftPrepare, 2, 1, re_proposal.digest))
    assert slot.commit_sent and _state(slot.prepares) == {re_proposal.digest: "closed"}
    assert _last(sent, PbftCommit).view == 1


@given(st.lists(st.tuples(st.integers(0, 2), st.one_of(st.none(), st.integers(0, 4)))))
def test_a_closed_value_counts_nobody_and_leaves_the_other_values_alone(steps):
    """``(value, None)`` closes the value, ``(value, voter)`` votes for it."""
    tally, model, closed = Tally(), {}, set()
    for value, voter in steps:
        if voter is None:
            tally.close(value)
            closed.add(value)
        elif value in closed or voter in model.setdefault(value, []):
            assert tally.add(value, voter) == 0
        else:
            model[value].append(voter)
            assert tally.add(value, voter) == len(model[value])
    for value in range(3):
        assert (tally.get(value) is CLOSED) is (value in closed)
        assert list(tally.votes(value)) == ([] if value in closed else model.get(value, []))
