"""Byzantine replica behaviours (``repro.adversary.behaviours``).

Fixed-seed golden fingerprints of whole-cluster runs — captured at commit
c0ec39b, before the behaviours moved out of the replica classes, and not to be
moved by any refactor of where the adversary code lives — and, below them,
what each behaviour does and does not send or forge on one replica on a bare
``Simulator`` + ``Network``.
"""

import pytest

from helpers import make_bare_replica, make_request, run_fingerprint, shared_and_unshared
from repro.adversary import EpisodeSpec, run_episode
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
from repro.sim.faults import FaultPlan
from repro.sim.process import Process


_PRIMARY_CRASH = FaultPlan.crash_first(1, at_time=0.02)

#: Each behaviour on every protocol stack that supports it, plus runs through
#: the paths a behaviour must *not* touch: re-proposals by an equivocating
#: new primary (``next-primary``), a share forger's checkpoint π share
#: (``linear-pbft`` has no execution collectors) and its view-change σ
#: evidence (``then-view-change``).  The unit tests below pin those exactly.
#: The six ``sbft-c0`` runs that leave the fast path were re-captured when
#: degraded mode landed (see ``GOLDEN_FAULT_RUNS`` in tests/test_batching.py).
GOLDEN_BYZANTINE_RUNS = [
    ("silent-primary-sbft-c0", "sbft-c0",
     dict(f=1, num_clients=2, requests_per_client=8, seed=21,
          fault_plan=FaultPlan.byzantine([0], silent, 0.02)),
     "69791390ce0ab2c4d9922a09f54bc345b5437ef3246d0b545eed2b282bba2f84"),
    ("silent-primary-pbft", "pbft",
     dict(f=1, num_clients=2, requests_per_client=8, seed=21,
          fault_plan=FaultPlan.byzantine([0], silent, 0.02)),
     "addbc50269c41f26aa719d48db02ca89c85700516e1a6f3e2927015e73b30e48"),
    ("silent-backup-sbft-c8", "sbft-c8",
     dict(f=1, c=1, num_clients=2, requests_per_client=8, seed=22,
          fault_plan=FaultPlan.byzantine([4], silent, 0.01)),
     "e08997719a2d42b25a8dc874c0c197497d8e83bd1c648fdd2b43cd24acec3b33"),
    ("equivocate-primary-sbft-c0", "sbft-c0",
     dict(f=1, num_clients=2, requests_per_client=8, seed=23,
          fault_plan=FaultPlan.byzantine([0], equivocate, 0.0)),
     "a337e65b5464f3bc4474e2d9929e3516752b3be2c1c2bbcd70d5a12f564c13e8"),
    ("equivocate-primary-pbft", "pbft",
     dict(f=1, num_clients=2, requests_per_client=8, seed=23,
          fault_plan=FaultPlan.byzantine([0], equivocate, 0.0)),
     "cceecb03b094da483dd092f2062fd962b26fb1a0196224313ca4a32e56448b3b"),
    ("equivocate-next-primary-sbft-c0-f2", "sbft-c0",
     dict(f=2, num_clients=4, requests_per_client=6, seed=24,
          fault_plan=_PRIMARY_CRASH.extend(FaultPlan.byzantine([1], equivocate, 0.0))),
     "ddfa760808ab0bcd90bebd720c7794a6a83d20c70a26f37872f4c15293eecf69"),
    ("equivocate-next-primary-pbft-f2", "pbft",
     dict(f=2, num_clients=4, requests_per_client=6, seed=24,
          fault_plan=_PRIMARY_CRASH.extend(FaultPlan.byzantine([1], equivocate, 0.0))),
     "d5213440e543da8968f52f4d474d4da234262860ebb02dcef2b903f18fcf9240"),
    ("stale-viewchange-sbft-c0", "sbft-c0",
     dict(f=1, num_clients=2, requests_per_client=8, seed=25,
          fault_plan=_PRIMARY_CRASH.extend(FaultPlan.byzantine([3], stale_view_change, 0.0))),
     "adc9f6769dba0db42d3eee5fd45642117523796d77834960b1f0893f1a16b621"),
    ("stale-viewchange-pbft", "pbft",
     dict(f=1, num_clients=2, requests_per_client=8, seed=25,
          fault_plan=_PRIMARY_CRASH.extend(FaultPlan.byzantine([3], stale_view_change, 0.0))),
     "24397fa23fc94f0cb3d558f71de7cb9070b5209c8557047bead802a94afe4c16"),
    ("stale-viewchange-sbft-c0-f2-continent", "sbft-c0",
     dict(f=2, num_clients=4, requests_per_client=6, batch_size=4, topology="continent", seed=26,
          fault_plan=FaultPlan.crash_first(1, at_time=0.3).extend(
              FaultPlan.byzantine([5, 6], stale_view_change, 0.1))),
     "f8742ad25f2abe3a76e17646dd100c1480277e8520cc480abfa7c8173d889780"),
    ("bad-shares-sbft-c0", "sbft-c0",
     dict(f=1, num_clients=2, requests_per_client=8, seed=27,
          fault_plan=FaultPlan.byzantine([3], bad_shares, 0.0)),
     "9ec08006d6ffe981cecd7324bb393babf82fb1e63c91010df97f119daba1f4f2"),
    ("bad-shares-sbft-c8", "sbft-c8",
     dict(f=1, c=1, num_clients=2, requests_per_client=8, seed=27,
          fault_plan=FaultPlan.byzantine([5], bad_shares, 0.01)),
     "2699844d77ce71435edbb5a40e0bb8c6ca81a7b58f3985e2af772eca8f1d9d71"),
    ("bad-shares-linear-pbft", "linear-pbft",
     dict(f=1, num_clients=2, requests_per_client=20, seed=28,
          config_overrides={"checkpoint_interval": 4},
          fault_plan=FaultPlan.byzantine([2], bad_shares, 0.0)),
     "4f0ac07a38c867fd754b1f68b42e6b5a49e447c9ca0395537971fc718ee9ad16"),
    ("bad-shares-then-view-change-sbft-c0-f2", "sbft-c0",
     dict(f=2, num_clients=4, requests_per_client=6, seed=29,
          fault_plan=_PRIMARY_CRASH.extend(FaultPlan.byzantine([4], bad_shares, 0.0))),
     "bb8b5b4cc8d10dae3b62852987524b6e86ae5c46dbf7c1a0ecf33faad90958ba"),
]


@shared_and_unshared
@pytest.mark.parametrize("protocol,kwargs,expected",
                         [run[1:] for run in GOLDEN_BYZANTINE_RUNS],
                         ids=[run[0] for run in GOLDEN_BYZANTINE_RUNS])
def test_byzantine_runs_reproduce_golden_seeds(protocol, kwargs, expected, post_build):
    """Shared and unshared (``helpers.unshare``; see tests/test_batching.py)."""
    assert run_fingerprint(protocol, post_build=post_build, **kwargs) == expected


#: ``viewchange-spam`` with ``equivocate_claims``: per view, the spammer's
#: honest view-change message and a stale one built by the same replica.
#: (verdict, completed, compromised, evidence, sim time, events) per protocol.
GOLDEN_SPAM_EPISODES = {
    "sbft-c0": ("ok", 12, (3,), 0, 0.055588281, 415),
    "pbft": ("ok", 12, (3,), 1, 0.027857588, 653),
}


@pytest.mark.parametrize("protocol", sorted(GOLDEN_SPAM_EPISODES))
def test_viewchange_spam_with_conflicting_claims_reproduces_golden_episode(protocol):
    spec = EpisodeSpec(
        protocol=protocol, strategy="viewchange-spam", seed=31,
        params=(("count", 12), ("equivocate_claims", True), ("jump", 3),
                ("period", 0.01), ("start", 0.0)),
    )
    report = run_episode(spec, forensics=True)
    assert (
        report.verdict(), report.completed, report.compromised, report.evidence_count,
        round(report.sim_time, 9), report.events_processed,
    ) == GOLDEN_SPAM_EPISODES[protocol]


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
