"""PBFT quorum tallies: reading a bucket's size must not move a single decision.

``_check_prepared`` / ``_check_committed`` read the size of the slot digest's
bucket in a :class:`repro.core.log.Tally`, and ``_on_checkpoint`` counts votes
for one state digest.  The first two are pure host-work savings, so one replica
running them is driven in lockstep with a reference replica that recounts the
matching voters one by one on every vote; after every hand-built message both
must have sent the same messages and hold the same slot state and buckets.
The checkpoint rule is a behaviour fix and gets its own test.
"""

import random

import pytest

from helpers import make_bare_replica
from repro.core.config import SBFTConfig
from repro.core.keys import TrustedSetup
from repro.core.messages import ClientRequest, PrePrepare
from repro.crypto.hashing import block_digest
from repro.crypto.signatures import generate_keypair
from repro.pbft.messages import (
    PbftCheckpoint,
    PbftCommit,
    PbftNewView,
    PbftPrepare,
    PbftViewChange,
)
from repro.pbft.replica import PBFTReplica
from repro.services.authenticated_kv import AuthenticatedKVStore

CONFIG = SBFTConfig(f=2, c=0)  # n = 7, quorum = 5
SETUP = TrustedSetup(CONFIG, seed=5)
QUORUM = 2 * CONFIG.f + 1
ME = 1  # the replica under test: a backup in view 0, the primary of view 1


class ScanningReplica(PBFTReplica):
    """Reference: a full recount of the matching voters on every vote."""

    def _check_prepared(self, slot):
        if slot.commit_sent or slot.digest is None or slot.pre_prepare is None:
            return
        matching = sum(1 for _voter in slot.prepares.votes(slot.digest))
        if matching >= self.quorum - 1:
            slot.commit_sent = True
            self.charge_cpu(self.costs.rsa_sign)
            signature = self.signing_key.sign(("commit", slot.sequence, self.view, slot.digest))
            self._broadcast(
                PbftCommit(slot.sequence, self.view, slot.digest, self.node_id, signature)
            )

    def _check_committed(self, slot):
        if slot.committed or slot.digest is None:
            return
        matching = sum(1 for _voter in slot.commits.votes(slot.digest))
        if matching >= self.quorum and slot.pre_prepare is not None:
            slot.committed = True
            self.stats.blocks_committed += 1
            self._try_execute()


def _make_replica(cls):
    # seed=5 deals the same keys as SETUP, which signs the hand-built votes.
    _sim, _network, replica = make_bare_replica(cls, CONFIG, node_id=ME, seed=5)
    sent = []
    replica._broadcast = sent.append
    return replica, sent


def _observe(replica, sent):
    slots = {
        slot.sequence: (slot.digest, slot.prepare_sent, slot.commit_sent, slot.committed,
                        dict(slot.prepares), dict(slot.commits))
        for slot in replica.log.slots()
    }
    messages = [(type(m).__name__, m.sequence, m.view, m.digest) for m in sent]
    return slots, messages, dict(replica.stats), replica.cpu.total_busy_time


class Lockstep:
    """Delivers each message to the counting and the scanning replica and
    checks after every one that they are indistinguishable."""

    def __init__(self):
        self.lazy, self.lazy_sent = _make_replica(PBFTReplica)
        self.reference, self.reference_sent = _make_replica(ScanningReplica)

    def deliver(self, message, src):
        for replica in (self.lazy, self.reference):
            replica._dispatch(message, src)
        assert _observe(self.lazy, self.lazy_sent) == _observe(self.reference, self.reference_sent)

    def slot(self, sequence):
        return self.lazy.log.peek(sequence)


def _request(timestamp):
    op = AuthenticatedKVStore.make_put(f"k{timestamp}", "v", client_id=0, timestamp=timestamp)
    return ClientRequest(
        client_id=0, timestamp=timestamp, operations=(op,),
        signature=generate_keypair("client-0").sign(("request", 0, timestamp)),
    )


def _pre_prepare(sequence, view, requests):
    digest = block_digest(sequence, view, [r.request_id for r in requests])
    key = SETUP.replica_keys(view % CONFIG.n).signing_key
    return PrePrepare(
        sequence, view, tuple(requests), digest, key.sign(("pre-prepare", sequence, view, digest))
    )


def _vote(cls, replica_id, sequence, view, digest):
    phase = "prepare" if cls is PbftPrepare else "commit"
    key = SETUP.replica_keys(replica_id).signing_key
    return cls(sequence, view, digest, replica_id, key.sign((phase, sequence, view, digest)))


OTHERS = [i for i in range(CONFIG.n) if i != ME]


def test_votes_that_arrive_before_the_pre_prepare():
    run = Lockstep()
    block = _pre_prepare(1, 0, [_request(1)])
    for replica_id in OTHERS:  # a full house of both phases, and still no pre-prepare
        run.deliver(_vote(PbftPrepare, replica_id, 1, 0, block.digest), replica_id)
        run.deliver(_vote(PbftCommit, replica_id, 1, 0, block.digest), replica_id)
    assert not run.slot(1).commit_sent and not run.slot(1).committed
    run.deliver(block, 0)
    assert run.slot(1).commit_sent  # prepared by the pre-prepare itself
    assert not run.slot(1).committed  # commits are only re-examined on the next commit
    run.deliver(_vote(PbftCommit, ME, 1, 0, block.digest), ME)
    assert run.slot(1).committed


def test_prepared_and_committed_at_exactly_the_quorum_vote():
    run = Lockstep()
    block = _pre_prepare(1, 0, [_request(1)])
    run.deliver(block, 0)
    for count, replica_id in enumerate(OTHERS, start=1):
        run.deliver(_vote(PbftPrepare, replica_id, 1, 0, block.digest), replica_id)
        assert run.slot(1).commit_sent is (count >= QUORUM - 1)
    for count, replica_id in enumerate(OTHERS, start=1):
        run.deliver(_vote(PbftCommit, replica_id, 1, 0, block.digest), replica_id)
        assert run.slot(1).committed is (count >= QUORUM)


def test_mismatching_digests_from_an_equivocating_primary():
    """The tally fills up with votes for the other block long before enough
    of them match: the number of votes alone must never prepare or commit."""
    run = Lockstep()
    ours = _pre_prepare(1, 0, [_request(1), _request(2)])
    theirs = _pre_prepare(1, 0, [_request(2), _request(1)])
    run.deliver(ours, 0)
    run.deliver(theirs, 0)  # second pre-prepare for the slot is ignored
    for phase in (PbftPrepare, PbftCommit):
        flag = "commit_sent" if phase is PbftPrepare else "committed"
        for replica_id in OTHERS[:3]:
            run.deliver(_vote(phase, replica_id, 1, 0, theirs.digest), replica_id)
        for replica_id in OTHERS[3:]:
            run.deliver(_vote(phase, replica_id, 1, 0, ours.digest), replica_id)
        assert not getattr(run.slot(1), flag)  # 6 votes >= quorum, only 3 match
        # Replicas vote for our block as well, one by one (each bucket
        # counts a voter once).
        run.deliver(_vote(phase, OTHERS[0], 1, 0, ours.digest), OTHERS[0])
        # 4 matching: quorum - 1 prepares suffice, quorum commits do not yet.
        assert getattr(run.slot(1), flag) is (phase is PbftPrepare)
        run.deliver(_vote(phase, OTHERS[1], 1, 0, ours.digest), OTHERS[1])
        assert getattr(run.slot(1), flag)


def test_view_change_resets_open_slots():
    run = Lockstep()
    stale = _pre_prepare(1, 0, [_request(1)])
    run.deliver(stale, 0)
    for replica_id in OTHERS[:3]:
        run.deliver(_vote(PbftPrepare, replica_id, 1, 0, stale.digest), replica_id)
    view_changes = tuple(
        PbftViewChange(
            new_view=1, replica_id=replica_id, last_stable=0, prepared=(),
            signature=SETUP.replica_keys(replica_id).signing_key.sign(("view-change", 1, 0)),
        )
        for replica_id in range(QUORUM)
    )
    run.deliver(PbftNewView(view=1, view_changes=view_changes), 1)
    slot = run.slot(1)
    assert (slot.digest, slot.prepares, slot.commits, slot.commit_sent) == (None, {}, {}, False)
    # Late view-0 votes are dropped; the slot then runs again in view 1.
    run.deliver(_vote(PbftPrepare, OTHERS[3], 1, 0, stale.digest), OTHERS[3])
    fresh = _pre_prepare(1, 1, [_request(1)])
    run.deliver(fresh, 1)
    for count, replica_id in enumerate(OTHERS, start=1):
        run.deliver(_vote(PbftPrepare, replica_id, 1, 1, fresh.digest), replica_id)
        assert slot.commit_sent is (count >= QUORUM - 1)
    for count, replica_id in enumerate(OTHERS, start=1):
        run.deliver(_vote(PbftCommit, replica_id, 1, 1, fresh.digest), replica_id)
        assert slot.committed is (count >= QUORUM)


@pytest.mark.parametrize("seed", range(8))
def test_random_vote_orders_match_the_scanning_reference(seed):
    """Shuffled pre-prepares and votes over three slots and two digests."""
    rng = random.Random(seed)
    run = Lockstep()
    messages = []
    for sequence in (1, 2, 3):
        blocks = [
            _pre_prepare(sequence, 0, [_request(2 * sequence)]),
            _pre_prepare(sequence, 0, [_request(2 * sequence + 1)]),
        ]
        messages.append((rng.choice(blocks), 0))
        for phase in (PbftPrepare, PbftCommit):
            for replica_id in range(CONFIG.n):
                digest = blocks[rng.random() < 0.3].digest
                messages.append((_vote(phase, replica_id, sequence, 0, digest), replica_id))
                if rng.random() < 0.2:  # a changed mind
                    other = blocks[rng.random() < 0.5].digest
                    messages.append((_vote(phase, replica_id, sequence, 0, other), replica_id))
    rng.shuffle(messages)
    for message, src in messages:
        run.deliver(message, src)


def _checkpoint(replica_id, sequence, digest):
    key = SETUP.replica_keys(replica_id).signing_key
    return PbftCheckpoint(
        sequence, digest, replica_id, key.sign(("checkpoint", sequence, digest))
    )


def test_checkpoint_needs_a_quorum_for_one_state_digest():
    replica, _sent = _make_replica(PBFTReplica)
    sequence = CONFIG.checkpoint_every
    for replica_id in range(CONFIG.f):  # f divergent digests ...
        replica._on_checkpoint(_checkpoint(replica_id, sequence, f"bad-{replica_id}"), replica_id)
    for replica_id in range(CONFIG.f, 3 * CONFIG.f):  # ... plus 2f matching ones
        replica._on_checkpoint(_checkpoint(replica_id, sequence, "good"), replica_id)
    assert sum(map(len, replica._checkpoints[sequence].values())) == 3 * CONFIG.f >= QUORUM
    assert replica.last_stable == 0
    replica._on_checkpoint(_checkpoint(3 * CONFIG.f, sequence, "good"), 3 * CONFIG.f)
    assert replica.last_stable == sequence


def test_a_committed_block_is_not_replaced_by_a_later_views_re_proposal():
    """A new primary re-proposes what the view-change set says was prepared,
    under a new digest (the view is part of it); a replica that already
    committed the slot keeps its block, or it would execute another one."""
    run = Lockstep()
    block = _pre_prepare(1, 0, [_request(1)])
    run.deliver(block, 0)
    for phase in (PbftPrepare, PbftCommit):
        for replica_id in OTHERS[:QUORUM]:
            run.deliver(_vote(phase, replica_id, 1, 0, block.digest), replica_id)
    assert run.slot(1).committed
    view_changes = tuple(
        PbftViewChange(
            new_view=2, replica_id=replica_id, last_stable=0,
            prepared=((1, 0, block.digest, block.requests),),
            signature=SETUP.replica_keys(replica_id).signing_key.sign(("view-change", 2, 0)),
        )
        for replica_id in range(QUORUM)
    )
    run.deliver(PbftNewView(view=2, view_changes=view_changes), 2)
    run.deliver(_pre_prepare(1, 2, block.requests), 2)
    assert (run.slot(1).pre_prepare, run.slot(1).digest) == (block, block.digest)
