"""Byzantine replica behaviours (``repro.adversary.behaviours``): what each
behaviour does and does not send or forge on one replica on a bare
``Simulator`` + ``Network``.  Whole-cluster runs of every behaviour are
goldens of the fixed-seed contract (``BYZANTINE_RUNS`` in tests/contract.py).
"""

import pytest

from helpers import make_bare_replica, make_request
from repro.adversary.behaviours import (
    bad_shares,
    equivocate,
    silent,
    stale_view_change,
    stale_view_change_message,
)
from repro.core.config import SBFTConfig
from repro.core.messages import (
    CheckpointMsg,
    ClientReply,
    Commit,
    Prepare,
    PrePrepare,
    SignShare,
    SignState,
)
from repro.core.replica import SBFTReplica
from repro.core.viewchange import ACTION_ADOPT, NewViewPlan, SlotDecision
from repro.errors import ConfigurationError
from repro.pbft.messages import PbftNewView, PbftViewChange
from repro.pbft.replica import PBFTReplica
from repro.sim.process import Process


# ----------------------------------------------------------------------
# One compromised replica on a bare Simulator + Network
# ----------------------------------------------------------------------
PROTOCOLS = [SBFTReplica, PBFTReplica]
CONFIG = SBFTConfig(f=1, batch_size=2, batch_timeout=0.01, checkpoint_interval=4)
CLIENT_NODE = CONFIG.n + 1


@pytest.fixture(params=PROTOCOLS, ids=lambda cls: cls.__name__)
def replica_cls(request):
    return request.param


class _Peer(Process):
    def on_message(self, message, src):
        pass


def _replica(replica_cls, node_id=0):
    """-> (sim, network, replica, sent): the replica's peers and one client
    node exist, and ``sent`` lists every ``(dst, message)`` that reaches the
    network — so a send the replica withholds is visibly absent."""
    sim, network, replica = make_bare_replica(replica_cls, CONFIG, node_id=node_id)
    for peer in range(CLIENT_NODE + 1):
        if peer != node_id:
            network.register(_Peer(sim, peer))
    replica.client_directory[0] = CLIENT_NODE
    sent = []
    network.add_tap(lambda src, dst, message: sent.append((dst, message)))
    return sim, network, replica, sent


def _fill_one_batch(replica, first_timestamp=1):
    requests = (make_request(first_timestamp), make_request(first_timestamp + 1))
    for request in requests:
        replica._on_client_request(request, src=CLIENT_NODE)
    return requests


# -- silent -------------------------------------------------------------
def test_silent_replica_keeps_working_but_nothing_reaches_the_network(replica_cls):
    sim, network, replica, sent = _replica(replica_cls)
    rng_before = network.rng.getstate()
    silent(replica)
    _fill_one_batch(replica)
    assert replica.stats["blocks_proposed"] == 1          # it still runs the protocol
    replica._replies.record(0, 9, 1, ("stored",))
    replica._on_client_request(make_request(9), src=CLIENT_NODE)   # cached reply: withheld too
    assert sent == []
    assert network.stats.messages_sent == network.stats.messages_dropped == 0
    assert network.rng.getstate() == rng_before            # no latency or drop draw


def test_honest_replica_sends_what_the_silent_one_withholds(replica_cls):
    sim, network, replica, sent = _replica(replica_cls)
    _fill_one_batch(replica)
    replica._replies.record(0, 9, 1, ("stored",))
    replica._on_client_request(make_request(9), src=CLIENT_NODE)
    assert [type(m) for _, m in sent] == [PrePrepare] * CONFIG.n + [ClientReply]


# -- equivocate ---------------------------------------------------------
def test_equivocating_primary_sends_two_validly_signed_conflicting_proposals(replica_cls):
    sim, network, replica, sent = _replica(replica_cls)
    equivocate(replica)
    requests = _fill_one_batch(replica)
    assert [dst for dst, _ in sent] == list(range(CONFIG.n))
    even, odd = sent[0][1], sent[1][1]
    assert [m for _, m in sent] == [even, odd, even, odd]
    assert even.requests == requests and odd.requests == requests[::-1]
    assert (even.sequence, even.view) == (odd.sequence, odd.view) == (1, 0)
    assert even.digest != odd.digest
    verify_key = replica.signing_key.verify_key
    for proposal in (even, odd):
        assert verify_key.verify(
            ("pre-prepare", 1, 0, proposal.digest), proposal.primary_signature
        )
    assert replica.stats["blocks_proposed"] == 1
    costs = replica.costs                                  # both blocks were hashed and signed
    assert replica.cpu.total_busy_time == pytest.approx(2 * (costs.hash_op + costs.rsa_sign))


def test_equivocation_lasts_across_proposals_and_leaves_other_broadcasts_alone(replica_cls):
    sim, network, replica, sent = _replica(replica_cls)
    equivocate(replica)
    _fill_one_batch(replica)
    _fill_one_batch(replica, first_timestamp=3)
    proposals = [m for _, m in sent]
    assert len({id(m) for m in proposals}) == 4 and {m.sequence for m in proposals} == {1, 2}
    del sent[:]
    replica._start_view_change(1)                          # a broadcast outside _propose
    assert len({id(m) for _, m in sent}) == 1 and len(sent) == CONFIG.n


def test_sbft_new_primary_reproposes_honestly_and_equivocates_only_on_fresh_blocks():
    sim, network, replica, sent = _replica(SBFTReplica, node_id=1)
    equivocate(replica)
    adopted = (make_request(1), make_request(2))
    fresh = _fill_one_batch(replica, first_timestamp=3)    # queued: replica 1 is a backup in view 0
    sent.clear()
    replica._pending_requests = list(fresh)
    decision = SlotDecision(sequence=1, action=ACTION_ADOPT, digest="d", requests=adopted)
    replica._enter_view(1, NewViewPlan(view=1, last_stable=0, decisions={1: decision}))
    proposals = [m for _, m in sent if isinstance(m, PrePrepare)]
    reproposed, conflicting = proposals[: CONFIG.n], proposals[CONFIG.n :]
    assert len({id(m) for m in reproposed}) == 1 and reproposed[0].requests == adopted
    assert [m.requests for m in conflicting] == [fresh, fresh[::-1]] * 2
    assert {m.sequence for m in conflicting} == {2}


def test_pbft_new_primary_reproposes_honestly_and_equivocates_only_on_fresh_blocks():
    sim, network, replica, sent = _replica(PBFTReplica, node_id=1)
    equivocate(replica)
    adopted = (make_request(1), make_request(2))
    fresh = (make_request(3), make_request(4))
    replica._pending_requests = list(fresh)
    claim = PbftViewChange(new_view=1, replica_id=2, last_stable=0,
                           prepared=((1, 0, "d", adopted),))
    replica._on_new_view(PbftNewView(view=1, view_changes=(claim,) * replica.quorum), src=1)
    proposals = [m for _, m in sent if isinstance(m, PrePrepare)]
    reproposed, conflicting = proposals[: CONFIG.n], proposals[CONFIG.n :]
    assert len({id(m) for m in reproposed}) == 1 and reproposed[0].requests == adopted
    assert [m.requests for m in conflicting] == [fresh, fresh[::-1]] * 2
    assert {m.sequence for m in conflicting} == {2}


# -- bad-shares ---------------------------------------------------------
def _forger():
    sim, network, replica, sent = _replica(SBFTReplica, node_id=3)
    bad_shares(replica)
    proposal = replica._signed_pre_prepare(4, (make_request(1), make_request(2)))
    replica._dispatch(proposal, 0)
    return replica, sent, proposal


def test_bad_shares_forges_the_sign_commit_and_state_shares():
    replica, sent, proposal = _forger()
    keys = replica.keys
    sign_message = ("sign", 4, 0, proposal.digest)

    [sign_share] = {id(m): m for _, m in sent if isinstance(m, SignShare)}.values()
    for scheme, share in ((keys.sigma, sign_share.sigma_share), (keys.tau, sign_share.tau_share)):
        assert (share.signer_id, share.message) == (3, sign_message)   # well-formed...
        assert not scheme.verify_share(share)                           # ...and invalid

    certificate = keys.tau.combine(
        [keys.tau.sign_share(i, sign_message) for i in range(CONFIG.tau_threshold)]
    )
    replica._dispatch(Prepare(sequence=4, view=0, digest=proposal.digest,
                              tau_signature=certificate), 0)
    [commit] = {id(m): m for _, m in sent if isinstance(m, Commit)}.values()
    assert commit.tau_share_on_tau.message == ("commit", 4, 0, proposal.digest)
    assert not keys.tau.verify_share(commit.tau_share_on_tau)
    # The certificate check inside the forged handler stayed honest.
    assert replica.log.peek(4).prepare_certificate is certificate

    slot = replica.log.peek(4)
    slot.state_digest = "state"
    replica._send_sign_state(slot)
    [sign_state] = {id(m): m for _, m in sent if isinstance(m, SignState)}.values()
    assert sign_state.pi_share.message == ("state", 4, "state")
    assert not keys.pi.verify_share(sign_state.pi_share)


def test_bad_shares_leaves_the_checkpoint_share_and_view_change_evidence_valid():
    replica, sent, proposal = _forger()
    keys = replica.keys
    slot = replica.log.peek(4)
    slot.state_digest = "state"
    replica._maybe_send_checkpoint(slot)
    checkpoint = next(m for _, m in sent if isinstance(m, CheckpointMsg))
    assert keys.pi.verify_share(checkpoint.pi_share)

    [evidence] = replica.build_view_change(1).slots
    _tag, sigma_share, _view, _digest = evidence.fm
    assert sigma_share.message == ("sign", 4, 0, proposal.digest)
    assert keys.sigma.verify_share(sigma_share)


def test_bad_shares_needs_a_replica_with_threshold_shares():
    sim, network, replica, sent = _replica(PBFTReplica)
    with pytest.raises(ConfigurationError, match="PBFTReplica"):
        bad_shares(replica)


# -- stale-viewchange ---------------------------------------------------
def test_stale_view_change_hides_the_stable_point_and_all_evidence(replica_cls):
    sim, network, replica, sent = _replica(replica_cls, node_id=2)
    replica._dispatch(replica._signed_pre_prepare(5, (make_request(1),)), 0)
    replica.last_stable = 4
    honest = replica.build_view_change(1)
    assert honest.last_stable == 4
    busy = replica.cpu.total_busy_time

    lie = stale_view_change_message(replica, 1)            # one lie, nothing installed
    assert replica.build_view_change(1) == honest
    stale_view_change(replica)
    sent.clear()
    replica._start_view_change(1)
    assert [m for _, m in sent] == [lie] * CONFIG.n
    assert (lie.new_view, lie.replica_id, lie.last_stable) == (1, 2, 0)
    if replica_cls is PBFTReplica:
        assert lie.prepared == ()
        # Validly signed — accountability evidence, not a forgery — and paid for.
        assert replica.signing_key.verify_key.verify(("view-change", 1, 0), lie.signature)
        assert replica.cpu.total_busy_time - busy == pytest.approx(3 * replica.costs.rsa_sign)
    else:
        assert honest.slots and lie.slots == () and lie.stable_proof is None
