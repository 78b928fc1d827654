"""Unit tests for the dual-mode view-change safe-value computation (Section V-G).

These exercise the pure function :func:`compute_new_view_plan` with
hand-constructed evidence, including the safety-critical corner cases the
paper's proof relies on: full certificates decide immediately, the slow-path
prepare certificate is preferred over fast-path evidence on view ties, a fast
value needs ``f + c + 1`` supporting pre-prepares, and empty slots become
no-ops.
"""

import pytest

from repro.core.config import SBFTConfig
from repro.core.keys import TrustedSetup
from repro.core.messages import ClientRequest, SlotEvidence, ViewChange
from repro.core.viewchange import (
    ACTION_ADOPT,
    ACTION_COMMIT,
    ACTION_NOOP,
    FM_FAST_PROOF,
    FM_NO_PRE_PREPARE,
    FM_PRE_PREPARED,
    LM_COMMIT_PROOF,
    LM_NO_COMMIT,
    LM_PREPARED,
    compute_new_view_plan,
)
from repro.services.authenticated_kv import AuthenticatedKVStore

CONFIG = SBFTConfig(f=1, c=0)          # n=4, quorum=3, fast quorum f+c+1=2
SETUP = TrustedSetup(CONFIG, seed=3)


def _request(client=1, timestamp=1):
    return ClientRequest(
        client_id=client,
        timestamp=timestamp,
        operations=(AuthenticatedKVStore.make_put("k", "v", client_id=client, timestamp=timestamp),),
    )


def _sign_message(sequence, view, digest):
    return ("sign", sequence, view, digest)


def _commit_message(sequence, view, digest):
    return ("commit", sequence, view, digest)


def _sigma_cert(sequence, view, digest):
    shares = [
        SETUP.sigma.sign_share(i, _sign_message(sequence, view, digest))
        for i in range(CONFIG.sigma_threshold)
    ]
    return SETUP.sigma.combine(shares)


def _tau_cert(sequence, view, digest):
    shares = [
        SETUP.tau.sign_share(i, _sign_message(sequence, view, digest))
        for i in range(CONFIG.tau_threshold)
    ]
    return SETUP.tau.combine(shares)


def _tau_tau_cert(sequence, view, digest):
    shares = [
        SETUP.tau.sign_share(i, _commit_message(sequence, view, digest))
        for i in range(CONFIG.tau_threshold)
    ]
    return SETUP.tau.combine(shares)


def _sigma_share(replica, sequence, view, digest):
    return SETUP.sigma.sign_share(replica, _sign_message(sequence, view, digest))


def _view_change(replica_id, slots, last_stable=0, new_view=1):
    return ViewChange(
        new_view=new_view,
        replica_id=replica_id,
        last_stable=last_stable,
        stable_proof=None,
        slots=tuple(slots),
    )


def _empty_evidence(sequence):
    return SlotEvidence(sequence=sequence, lm=(LM_NO_COMMIT,), fm=(FM_NO_PRE_PREPARE,))


def _plan(view_changes):
    return compute_new_view_plan(
        1, view_changes, CONFIG, sigma=SETUP.sigma, tau=SETUP.tau, pi=SETUP.pi
    )


def test_quorum_size_enforced():
    with pytest.raises(ValueError):
        _plan([_view_change(0, [])])


def test_all_empty_slots_mean_no_decisions():
    plan = _plan([_view_change(i, []) for i in range(3)])
    assert plan.decisions == {}
    assert plan.last_stable == 0


def test_fast_certificate_decides_commit():
    digest = "d-fast"
    requests = (_request(),)
    evidence = SlotEvidence(
        sequence=1,
        lm=(LM_NO_COMMIT,),
        fm=(FM_FAST_PROOF, _sigma_cert(1, 0, digest), digest),
        requests_by_digest=((digest, requests),),
    )
    plan = _plan([_view_change(0, [evidence]), _view_change(1, []), _view_change(2, [])])
    decision = plan.decisions[1]
    assert decision.action == ACTION_COMMIT
    assert decision.via_fast_path
    assert decision.digest == digest
    assert decision.requests == requests


def test_slow_certificate_decides_commit():
    digest = "d-slow"
    evidence = SlotEvidence(
        sequence=1,
        lm=(LM_COMMIT_PROOF, _tau_tau_cert(1, 0, digest), digest),
        fm=(FM_NO_PRE_PREPARE,),
    )
    plan = _plan([_view_change(0, [evidence]), _view_change(1, []), _view_change(2, [])])
    decision = plan.decisions[1]
    assert decision.action == ACTION_COMMIT
    assert not decision.via_fast_path


def test_certificate_over_other_digest_cannot_decide_slot():
    digest = "d-forged"
    # A perfectly valid sigma certificate, but over a *different* digest: a
    # Byzantine replica pretending it proves `digest` must be ignored.
    mismatched = _sigma_cert(1, 0, "some-other-digest")
    evidence = SlotEvidence(
        sequence=1,
        lm=(LM_NO_COMMIT,),
        fm=(FM_FAST_PROOF, mismatched, digest),
    )
    plan = _plan([_view_change(0, [evidence]), _view_change(1, []), _view_change(2, [])])
    assert plan.decisions[1].action == ACTION_NOOP


def test_prepared_certificate_is_adopted():
    digest = "d-prepared"
    requests = (_request(),)
    evidence = SlotEvidence(
        sequence=2,
        lm=(LM_PREPARED, _tau_cert(2, 0, digest), 0, digest),
        fm=(FM_NO_PRE_PREPARE,),
        requests_by_digest=((digest, requests),),
    )
    plan = _plan([_view_change(0, [evidence]), _view_change(1, [_empty_evidence(2)]), _view_change(2, [])])
    decision = plan.decisions[2]
    assert decision.action == ACTION_ADOPT
    assert decision.digest == digest
    assert decision.requests == requests


def test_fast_value_needs_f_plus_c_plus_one_supporters():
    digest = "d-fastval"
    single = SlotEvidence(
        sequence=1,
        lm=(LM_NO_COMMIT,),
        fm=(FM_PRE_PREPARED, _sigma_share(0, 1, 0, digest), 0, digest),
    )
    plan = _plan([_view_change(0, [single]), _view_change(1, []), _view_change(2, [])])
    assert plan.decisions[1].action == ACTION_NOOP

    supporters = [
        SlotEvidence(
            sequence=1,
            lm=(LM_NO_COMMIT,),
            fm=(FM_PRE_PREPARED, _sigma_share(i, 1, 0, digest), 0, digest),
            requests_by_digest=((digest, (_request(),)),),
        )
        for i in range(2)  # f + c + 1 = 2
    ]
    plan = _plan([
        _view_change(0, [supporters[0]]),
        _view_change(1, [supporters[1]]),
        _view_change(2, []),
    ])
    decision = plan.decisions[1]
    assert decision.action == ACTION_ADOPT
    assert decision.digest == digest


def test_slow_path_preferred_over_fast_on_view_tie():
    """The safety proof's key asymmetry: on equal views, the prepared (tau)
    value wins over fast pre-prepare evidence."""
    tau_digest = "d-from-tau"
    fast_digest = "d-from-fast"
    prepared = SlotEvidence(
        sequence=1,
        lm=(LM_PREPARED, _tau_cert(1, 0, tau_digest), 0, tau_digest),
        fm=(FM_NO_PRE_PREPARE,),
        requests_by_digest=((tau_digest, (_request(1),)),),
    )
    fast_votes = [
        SlotEvidence(
            sequence=1,
            lm=(LM_NO_COMMIT,),
            fm=(FM_PRE_PREPARED, _sigma_share(i, 1, 0, fast_digest), 0, fast_digest),
            requests_by_digest=((fast_digest, (_request(2),)),),
        )
        for i in (1, 2)
    ]
    plan = _plan([
        _view_change(0, [prepared]),
        _view_change(1, [fast_votes[0]]),
        _view_change(2, [fast_votes[1]]),
    ])
    decision = plan.decisions[1]
    assert decision.action == ACTION_ADOPT
    assert decision.digest == tau_digest


def test_higher_view_fast_value_beats_lower_view_prepared():
    tau_digest = "d-old-tau"
    fast_digest = "d-new-fast"
    prepared = SlotEvidence(
        sequence=1,
        lm=(LM_PREPARED, _tau_cert(1, 0, tau_digest), 0, tau_digest),
        fm=(FM_NO_PRE_PREPARE,),
    )
    fast_votes = [
        SlotEvidence(
            sequence=1,
            lm=(LM_NO_COMMIT,),
            fm=(FM_PRE_PREPARED, _sigma_share(i, 1, 2, fast_digest), 2, fast_digest),
            requests_by_digest=((fast_digest, (_request(2),)),),
        )
        for i in (1, 2)
    ]
    plan = _plan([
        _view_change(0, [prepared]),
        _view_change(1, [fast_votes[0]]),
        _view_change(2, [fast_votes[1]]),
    ])
    decision = plan.decisions[1]
    assert decision.action == ACTION_ADOPT
    assert decision.digest == fast_digest


def test_conflicting_fast_values_at_same_view_are_not_adopted():
    votes_a = [
        SlotEvidence(
            sequence=1,
            lm=(LM_NO_COMMIT,),
            fm=(FM_PRE_PREPARED, _sigma_share(i, 1, 0, "digest-A"), 0, "digest-A"),
        )
        for i in (0, 1)
    ]
    votes_b = [
        SlotEvidence(
            sequence=1,
            lm=(LM_NO_COMMIT,),
            fm=(FM_PRE_PREPARED, _sigma_share(i, 1, 0, "digest-B"), 0, "digest-B"),
        )
        for i in (2, 3)
    ]
    plan = compute_new_view_plan(
        1,
        [
            _view_change(0, [votes_a[0]]),
            _view_change(1, [votes_a[1]]),
            _view_change(2, [votes_b[0]]),
            _view_change(3, [votes_b[1]]),
        ],
        CONFIG,
        sigma=SETUP.sigma,
        tau=SETUP.tau,
        pi=SETUP.pi,
    )
    assert plan.decisions[1].action == ACTION_NOOP


def test_gap_slots_between_evidence_become_noops():
    digest = "d-high"
    high = SlotEvidence(
        sequence=3,
        lm=(LM_PREPARED, _tau_cert(3, 0, digest), 0, digest),
        fm=(FM_NO_PRE_PREPARE,),
    )
    plan = _plan([_view_change(0, [high]), _view_change(1, []), _view_change(2, [])])
    assert plan.decisions[1].action == ACTION_NOOP
    assert plan.decisions[2].action == ACTION_NOOP
    assert plan.decisions[3].action == ACTION_ADOPT


def test_last_stable_taken_from_highest_proved_checkpoint():
    digest = "state-digest"
    proof = SETUP.pi.combine(
        [SETUP.pi.sign_share(i, ("state", 4, digest)) for i in range(CONFIG.pi_threshold)]
    )
    messages = [
        ViewChange(new_view=1, replica_id=0, last_stable=4, stable_proof=proof, slots=()),
        _view_change(1, []),
        _view_change(2, []),
    ]
    plan = _plan(messages)
    assert plan.last_stable == 4


def test_unproved_last_stable_claim_cannot_advance_stable_point():
    """A ``last_stable > 0`` claim needs a valid π proof: neither a missing
    proof nor a forged one may advance the stable point (a stale-viewchange
    or Byzantine replica must not garbage-collect live slots)."""
    # No proof at all.
    messages = [
        ViewChange(new_view=1, replica_id=0, last_stable=12, stable_proof=None, slots=()),
        _view_change(1, []),
        _view_change(2, []),
    ]
    assert _plan(messages).last_stable == 0

    # A proof from the wrong scheme (tau, not pi) fails verification.
    forged = SETUP.tau.combine(
        [SETUP.tau.sign_share(i, ("state", 12, "d")) for i in range(CONFIG.tau_threshold)]
    )
    messages = [
        ViewChange(new_view=1, replica_id=0, last_stable=12, stable_proof=forged, slots=()),
        _view_change(1, []),
        _view_change(2, []),
    ]
    assert _plan(messages).last_stable == 0
