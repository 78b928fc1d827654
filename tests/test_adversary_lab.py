"""Tests for the adversary package (``repro.adversary``): episodes as sweep points.

Covers episodes run by ``harness.run_point`` and their two verdicts (the
cluster's agreement monitor and request completion), fixed-seed determinism
(including ``--jobs`` worker identity), the planted-weakness acceptance path
(the search must find the unsafe-quorum safety hole and minimize it), f=2
episodes under a fault timeline, equivocation forensics (evidence must verify
against the signature layer and fail when tampered with), and the strategy
registry/parameter plumbing.
"""

import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import assert_agreement, run_small_cluster
from repro.adversary import STRATEGIES, STRATEGY_KINDS, Adversary, strategies
from repro.adversary.forensics import (
    EquivocationEvidence,
    MessageLog,
    find_equivocations,
    verify_evidence,
)
from repro.adversary.minimize import minimize, non_default_params
from repro.adversary.search import (
    SWEEP,
    eligible_strategies,
    episode_fields,
    episode_point,
    liveness_ok,
    minimize_violations,
    sample_episodes,
    verdict,
)
from repro.adversary.strategies import PLANTED_WEAK_QUORUM, WeakQuorumConfig
from repro.core.config import SBFTConfig
from repro.core.keys import TrustedSetup
from repro.core.messages import PrePrepare, SignShare, SignState
from repro.errors import ConfigurationError
from repro.experiments import harness
from repro.experiments.harness import run_point
from repro.pbft.messages import PbftViewChange
from repro.protocols.cluster import AgreementMonitor
from repro.protocols.registry import get_protocol, protocol_sizes
from repro.sim.faults import FaultPlan


def _verify_keys(seed: int):
    setup = TrustedSetup(SBFTConfig(f=1, c=0), seed=seed)
    return {i: setup.replica_verify_key(i) for i in range(4)}


# ----------------------------------------------------------------------
# Registry and parameter plumbing
# ----------------------------------------------------------------------
def test_registry_holds_every_strategy_class_under_its_own_kind():
    defined = {
        cls for cls in vars(strategies).values()
        if isinstance(cls, type) and issubclass(cls, Adversary) and cls is not Adversary
    }
    # No class left out, no two classes under one KIND.
    assert set(STRATEGIES.values()) == defined and len(STRATEGIES) == len(defined)
    assert STRATEGY_KINDS == tuple(STRATEGIES)
    for kind, cls in STRATEGIES.items():
        assert cls.KIND == kind
        for name, candidates in cls.PARAM_SPACE.items():
            assert candidates, (kind, name)


def test_unknown_strategy_and_unknown_param_are_rejected():
    with pytest.raises(ConfigurationError, match="unknown adversary strategy"):
        run_point(episode_point("pbft", "nope", 0))
    with pytest.raises(ConfigurationError, match="no parameter"):
        STRATEGIES["equivocating-primary"]({"bogus": 1})


def test_eligibility_respects_protocol_kind():
    assert "bad-shares" in eligible_strategies("sbft-c0", STRATEGY_KINDS)
    assert "bad-shares" not in eligible_strategies("pbft", STRATEGY_KINDS)
    assert "stale-checkpoint" not in eligible_strategies("sbft-c0", STRATEGY_KINDS)
    assert get_protocol("sbft-c0").kind == "sbft"


def test_episode_point_roundtrips_through_corpus_fields():
    point = episode_point(
        "pbft", "delay-commit-collectors", 42,
        params={"victims": 2, "extra_delay": 0.1}, plant_weak_quorum=True,
    )
    assert point.adversary.params == (("extra_delay", 0.1), ("victims", 2))
    assert episode_point(**episode_fields(point)) == point
    assert point.label == "pbft/delay-commit-collectors+weak-quorum@42[extra_delay=0.1;victims=2]"


# ----------------------------------------------------------------------
# Verdicts
# ----------------------------------------------------------------------
def test_agreement_monitor_only_counts_honest_conflicts():
    monitor = AgreementMonitor(compromised={2})
    monitor.observe(0, 5, "digest-b")
    monitor.observe(1, 5, "digest-a")
    monitor.observe(3, 5, "digest-b")
    # A conflict introduced solely by a compromised replica is not a
    # violation: the monitor judges honest replicas only.
    monitor.observe(2, 6, "digest-c")
    monitor.observe(0, 6, "digest-d")
    assert monitor.disagreements() == ((5, ("digest-a", "digest-b")),)


def test_assert_agreement_reads_the_monitor_of_the_run():
    cluster, _ = run_small_cluster("pbft", seed=3)
    assert_agreement(cluster)
    sequence = cluster.replicas[0].last_executed
    cluster.monitor.observe(1, sequence, "0" * 64)
    with pytest.raises(AssertionError, match=f"disagree .*\\({sequence}, "):
        assert_agreement(cluster)


def test_all_strategies_lose_against_sound_protocols():
    """Against unmodified SBFT/PBFT every scripted strategy must violate
    neither verdict (decision-identical fixed-seed episodes)."""
    for protocol in ("sbft-c0", "pbft"):
        kind = get_protocol(protocol).kind
        for name, cls in sorted(STRATEGIES.items()):
            if kind not in cls.PROTOCOLS:
                continue
            point = episode_point(protocol, name, 7)
            result = run_point(point)
            assert verdict(point, result) == "ok", (protocol, name, verdict(point, result))
            assert result.run.completed_requests == 12


def test_episode_is_deterministic():
    point = episode_point("pbft", "equivocating-primary", 1, plant_weak_quorum=True)
    first = run_point(point)
    second = run_point(point)
    assert first.disagreements == second.disagreements
    assert first.sim_time == second.sim_time
    assert first.events_processed == second.events_processed
    assert [e.digest_a for e in first.evidence] == [e.digest_a for e in second.evidence]


@pytest.mark.parametrize("strategy", ["equivocating-primary", "viewchange-spam"])
@pytest.mark.parametrize("protocol", ["sbft-c0", "pbft", "sbft-c8"])
def test_f2_episodes_under_a_fault_timeline_keep_agreement_and_liveness(protocol, strategy):
    """The episode shape is plain point data: f=2 on a continent WAN, four
    clients and a backup crash at 0.3 s are field values, not new code."""
    n = protocol_sizes(protocol, 2)[0]
    point = dataclasses.replace(
        episode_point(protocol, strategy, 5),
        f=2, clients=4, topology="continent",
        fault_plan=FaultPlan.crash_backups(1, n, at_time=0.3),
    )
    result = run_point(point)
    assert result.disagreements == ()
    assert result.run.completed_requests == 24 and liveness_ok(point, result)
    assert result.faults_fired == 1


# ----------------------------------------------------------------------
# Planted weakness: the acceptance path
# ----------------------------------------------------------------------
def test_weak_quorum_config_plants_both_quorums_and_deals_tau_from_them():
    honest = SBFTConfig(f=64, c=8)
    weak = WeakQuorumConfig(**dataclasses.asdict(honest))
    assert weak.tau_threshold == weak.pbft_quorum == PLANTED_WEAK_QUORUM
    assert (weak.n, weak.sigma_threshold) == (honest.n, honest.sigma_threshold)
    small = WeakQuorumConfig(f=1)
    assert TrustedSetup(small).tau.threshold == PLANTED_WEAK_QUORUM


def test_planted_weak_quorum_breaks_safety_and_sound_quorum_does_not():
    base = episode_point("pbft", "equivocating-primary", 1)
    assert verdict(base, run_point(base)) == "ok"

    planted = run_point(episode_point("pbft", "equivocating-primary", 1, plant_weak_quorum=True))
    assert planted.disagreements, "expected divergent executions at some sequence"
    for _sequence, digests in planted.disagreements:
        assert len(digests) >= 2
    assert planted.compromised == (0,)
    assert planted.evidence


def test_search_finds_and_minimizes_planted_violation():
    points = sample_episodes(episodes=60, seed=0, plant_weak_quorum=True)
    rows = harness.run(SWEEP, points)
    violating = [row for row in rows if row["verdict"] != "ok"]
    assert violating, "60-episode search must find the planted safety hole"
    entries = minimize_violations(points, rows)
    assert entries
    for entry in entries:
        assert not entry["expect"]["safety_ok"]
        assert entry["non_default_params"] <= 3
        assert run_point(episode_point(**entry["spec"])).disagreements


def test_every_committed_search_row_attacks_inside_its_episode():
    """A timing candidate past the episode's end samples an episode with no
    attack in it: every row of the committed search baseline starts its
    attack (``activate_at`` or ``start``) before its run ends."""
    path = Path(__file__).resolve().parents[1] / "BENCH_adversary_search.json"
    rows = [bench["extra_info"] for bench in json.loads(path.read_text())["benchmarks"]]
    assert len(rows) == 25
    for row in rows:
        params = row["params"]
        start = params["activate_at"] if "activate_at" in params else params["start"]
        assert start < row["sim_seconds"], row["label"]


def test_sampling_is_deterministic_and_jobs_identical():
    assert sample_episodes(8, seed=5) == sample_episodes(8, seed=5)
    points = sample_episodes(6, seed=5)

    def decide(jobs):
        rows = harness.run(SWEEP, points, jobs=jobs)
        return [{k: v for k, v in row.items() if k not in harness.HOST_FIELDS} for row in rows]

    assert decide(1) == decide(2)


# ----------------------------------------------------------------------
# Minimizer
# ----------------------------------------------------------------------
def test_minimizer_strips_noise_params_with_synthetic_predicate():
    point = episode_point(
        "pbft", "delay-commit-collectors", 3,
        params={"duration": 4.0, "extra_delay": 0.5, "start": 0.5, "victims": 2},
    )

    def needs_only_delay(candidate) -> bool:
        return dict(candidate.adversary.params).get("extra_delay", 0.02) == 0.5

    minimized = minimize(point, needs_only_delay)
    assert non_default_params(minimized) == {"extra_delay": 0.5}
    assert dataclasses.replace(minimized, adversary=point.adversary) == point


def test_minimizer_returns_nonreproducing_point_unchanged():
    point = episode_point("pbft", "silent-replica", 3)
    assert minimize(point, lambda _point: False) == point


# ----------------------------------------------------------------------
# Forensics
# ----------------------------------------------------------------------
def test_equivocation_evidence_verifies_and_tampering_fails():
    result = run_point(episode_point("pbft", "equivocating-primary", 1, plant_weak_quorum=True))
    assert result.evidence
    keys = _verify_keys(seed=1)
    for evidence in result.evidence:
        assert evidence.kind == "pre-prepare"
        assert evidence.culprit == 0
        assert verify_evidence(evidence, keys)

    original = result.evidence[0]
    same_message_twice = EquivocationEvidence(
        kind=original.kind,
        culprit=original.culprit,
        context=original.context,
        digest_a=original.digest_a,
        digest_b=original.digest_b,
        message_a=original.message_a,
        message_b=original.message_a,
    )
    assert not verify_evidence(same_message_twice, keys)
    wrong_culprit = EquivocationEvidence(
        kind=original.kind,
        culprit=2,
        context=original.context,
        digest_a=original.digest_a,
        digest_b=original.digest_b,
        message_a=original.message_a,
        message_b=original.message_b,
    )
    assert not verify_evidence(wrong_culprit, keys)
    assert not verify_evidence(
        dataclasses.replace(original, digest_a="forged", digest_b="also"), keys
    )
    # Wrong key material (a different deployment's setup) must also fail.
    assert not verify_evidence(original, _verify_keys(seed=999))
    # The signatures in evidence carry their signing provenance; it must not
    # vouch for a message whose fields were altered around them.
    a, b = original.message_a, original.message_b
    moved = (b.sequence + 1, b.view)
    for context, tampered_a, tampered_b in (
        (original.context, a, dataclasses.replace(b, digest="0" * 64)),
        (original.context, a, dataclasses.replace(b, primary_signature=a.primary_signature)),
        (moved, dataclasses.replace(a, sequence=moved[0]), dataclasses.replace(b, sequence=moved[0])),
    ):
        tampered = dataclasses.replace(
            original, context=context, message_a=tampered_a, message_b=tampered_b
        )
        assert not verify_evidence(tampered, keys)


def test_viewchange_spam_with_equivocating_claims_yields_signed_evidence():
    point = episode_point("pbft", "viewchange-spam", 7, params={"equivocate_claims": True})
    result = run_point(point)
    assert verdict(point, result) == "ok"  # spam is absorbed; liveness holds
    kinds = {evidence.kind for evidence in result.evidence}
    assert "view-change" in kinds
    keys = _verify_keys(seed=7)
    for evidence in result.evidence:
        assert verify_evidence(evidence, keys)
        assert evidence.culprit in result.compromised


def test_message_log_bounds_memory():
    log = MessageLog(limit=3)
    for index in range(5):
        log.tap(0, 1, f"message-{index}")
    assert len(log.records) == 3
    assert log.dropped == 2


def test_share_equivocation_detected_and_verified():
    """Conflicting shares from one signer in one signing context, bare."""
    config = SBFTConfig(f=1, c=0)
    setup = TrustedSetup(config, seed=3)
    sigma = setup.sigma
    message_a = ("sign", 1, 0, "digest-a")
    message_b = ("sign", 1, 0, "digest-b")
    share_a = sigma.sign_share(2, message_a)
    share_b = sigma.sign_share(2, message_b)

    records = [(2, 0, share_a), (2, 1, share_b)]
    schemes = {sigma.name: sigma}
    evidence = find_equivocations(records, _verify_keys(seed=3), schemes)
    assert len(evidence) == 1
    found = evidence[0]
    assert found.kind == "share"
    assert found.culprit == 2
    assert verify_evidence(found, {}, schemes)
    # An invalid (forged) share can never be half of valid evidence.
    forged = sigma.forge_share(2, message_b)
    records_forged = [(2, 0, share_a), (2, 1, forged)]
    assert find_equivocations(records_forged, _verify_keys(seed=3), schemes) == []


def test_forged_share_logged_first_does_not_hide_the_valid_one():
    """The first copy of a claim that *verifies* stands for it: a forged
    share over the same digest, carried first, is skipped, not kept."""
    setup = TrustedSetup(SBFTConfig(f=1, c=0), seed=3)
    sigma = setup.sigma

    def sign_share(share):
        digest = share.message[-1]
        return SignShare(sequence=1, view=0, replica_id=2, digest=digest, sigma_share=share)

    message_a, message_b = ("sign", 1, 0, "digest-a"), ("sign", 1, 0, "digest-b")
    records = [
        (2, 0, sign_share(sigma.forge_share(2, message_b))),
        (2, 1, sign_share(sigma.sign_share(2, message_a))),
        (2, 1, sign_share(sigma.sign_share(2, message_b))),
    ]
    schemes = {sigma.name: sigma}
    evidence = find_equivocations(records, _verify_keys(seed=3), schemes)
    assert [(e.kind, e.culprit, e.context, e.digest_a, e.digest_b) for e in evidence] == [
        ("share", 2, ("sign", 1, 0), "digest-a", "digest-b")
    ]
    assert verify_evidence(evidence[0], {}, schemes)


def test_non_verifying_view_change_logged_first_does_not_hide_the_valid_one():
    """The same rule for view changes: a copy under the culprit's id whose
    signature does not verify, logged first, is skipped."""
    setup = TrustedSetup(SBFTConfig(f=1, c=0), seed=3)

    def view_change(last_stable, signer=3, signed_stable=None):
        signed = ("view-change", 1, last_stable if signed_stable is None else signed_stable)
        signature = setup.replica_keys(signer).signing_key.sign(signed)
        return PbftViewChange(
            new_view=1, replica_id=3, last_stable=last_stable, prepared=(), signature=signature
        )

    equivocation = [(3, 0, view_change(0)), (3, 1, view_change(4))]
    for first in (view_change(4, signer=2), view_change(4, signed_stable=8)):
        evidence = find_equivocations([(3, 0, first)] + equivocation, _verify_keys(seed=3), {})
        assert [(e.kind, e.culprit, e.context, e.digest_a, e.digest_b) for e in evidence] == [
            ("view-change", 3, (1,), 0, 4)
        ]
        assert evidence[0].message_b is equivocation[1][2]
        assert verify_evidence(evidence[0], _verify_keys(seed=3))


def _hand_signed_evidence():
    """One valid piece of each kind, from hand-signed messages, with the
    keys and schemes that verify it."""
    setup = TrustedSetup(SBFTConfig(f=1, c=0), seed=3)
    key = setup.replica_keys(1).signing_key
    pre_prepares = [
        PrePrepare(sequence=1, view=0, requests=(), digest=digest,
                   primary_signature=key.sign(("pre-prepare", 1, 0, digest)))
        for digest in ("digest-a", "digest-b")
    ]
    view_changes = [
        PbftViewChange(new_view=1, replica_id=1, last_stable=stable, prepared=(),
                       signature=key.sign(("view-change", 1, stable)))
        for stable in (0, 4)
    ]
    shares = [
        SignShare(sequence=1, view=0, replica_id=1, digest=digest,
                  tau_share=setup.tau.sign_share(1, ("sign", 1, 0, digest)))
        for digest in ("digest-a", "digest-b")
    ]
    records = [(1, 0, message) for message in pre_prepares + view_changes + shares]
    schemes = {setup.tau.name: setup.tau}
    evidence = find_equivocations(records, _verify_keys(seed=3), schemes)
    assert [e.kind for e in evidence] == ["pre-prepare", "view-change", "share"]
    return evidence, _verify_keys(seed=3), schemes


@pytest.mark.parametrize("kind", ["pre-prepare", "view-change", "share"])
def test_evidence_whose_claims_do_not_match_its_messages_is_rejected(kind):
    """``verify_evidence`` recomputes the claims (and the context) from the
    two messages instead of trusting the record's fields."""
    evidence, keys, schemes = _hand_signed_evidence()
    [piece] = [e for e in evidence if e.kind == kind]
    assert verify_evidence(piece, keys, schemes)
    for changes in (
        {"digest_a": "forged", "digest_b": "also"},
        {"digest_a": piece.digest_b, "digest_b": piece.digest_a},
        {"digest_b": "forged"},
    ):
        assert not verify_evidence(dataclasses.replace(piece, **changes), keys, schemes)
    if kind == "share":
        for context in (("sign", 2, 0), ("commit", 1, 0), ()):
            assert not verify_evidence(dataclasses.replace(piece, context=context), keys, schemes)


def test_another_signers_pre_prepare_does_not_hide_the_primarys_equivocation():
    """A replica's self-signed pre-prepare for the slot, or a copy under the
    primary's name whose signature does not verify, seen first, is not
    paired with the primary's and does not mask the primary's own two."""
    setup = TrustedSetup(SBFTConfig(f=1, c=0), seed=3)

    def pre_prepare(signer, digest, signed_digest=None):
        signed = ("pre-prepare", 1, 0, signed_digest or digest)
        signature = setup.replica_keys(signer).signing_key.sign(signed)
        return PrePrepare(sequence=1, view=0, requests=(), digest=digest, primary_signature=signature)

    equivocation = [(0, 1, pre_prepare(0, "digest-a")), (0, 2, pre_prepare(0, "digest-b"))]
    for first in (pre_prepare(3, "digest-a"), pre_prepare(3, "digest-b"),
                  pre_prepare(0, "digest-a", signed_digest="digest-c")):
        records = [(3, 1, first)] + equivocation
        evidence = find_equivocations(records, _verify_keys(seed=3), {})
        assert [(e.kind, e.culprit, e.digest_a, e.digest_b) for e in evidence] == [
            ("pre-prepare", 0, "digest-a", "digest-b")
        ]
        assert verify_evidence(evidence[0], _verify_keys(seed=3))


def test_honest_runs_produce_no_evidence():
    point = episode_point("pbft", "silence-commit-collectors", 11)
    result = run_point(point)
    assert verdict(point, result) == "ok"
    assert result.evidence == []


def test_evidence_against_an_uncompromised_replica_is_a_blame_verdict():
    """Forensics accusing a replica the strategy did not take over is a bug
    the search reports, like a safety or liveness violation."""
    point = episode_point("pbft", "viewchange-spam", 7, params={"equivocate_claims": True})
    result = run_point(point)
    assert result.evidence and verdict(point, result) == "ok"
    assert verdict(point, dataclasses.replace(result, compromised=())) == "BLAME"


# ----------------------------------------------------------------------
# Forensics against a brute-force reference
# ----------------------------------------------------------------------
_SETUP = TrustedSetup(SBFTConfig(f=1, c=0), seed=3)
_SCHEMES = {scheme.name: scheme for scheme in (_SETUP.sigma, _SETUP.tau, _SETUP.pi)}
_KINDS = ("pre-prepare", "view-change", "share")


def _signed_copy(kind, culprit, context, claim, scheme, variant):
    """``(message, statement)``: one logged message and what it states, as
    the test knows from building it: ``(kind, culprit, context, claim,
    scheme, verifies, signed)``, ``signed`` the object evidence keeps.

    ``variant`` is ``valid``, ``forged`` (the culprit's name over a bad
    signature) or ``other`` (signed with another replica's key)."""
    other = (culprit + 1) % 4
    if kind == "share":
        scheme = _SCHEMES[scheme]
        signs = context + (claim,)
        if variant == "valid":
            share = scheme.sign_share(culprit, signs)
        elif variant == "forged":
            share = scheme.forge_share(culprit, signs)
        else:
            share = dataclasses.replace(scheme.sign_share(other, signs), signer_id=culprit)
        if scheme.name == "tau":
            message = share  # a bare share is its own statement
        elif scheme.name == "pi":
            message = SignState(sequence=context[1], replica_id=culprit, state_digest=claim,
                                pi_share=share)
        else:
            message = SignShare(sequence=context[1], view=context[2], replica_id=culprit,
                                digest=claim, sigma_share=share)
        return message, (kind, culprit, context, claim, scheme.name, variant == "valid", share)
    # An ``other`` pre-prepare is the other signer's own valid statement; an
    # ``other`` view change still names the culprit and does not verify.
    signer = other if variant == "other" else culprit
    signed_claim = (claim, "forged") if variant == "forged" else claim
    signature = _SETUP.replica_keys(signer).signing_key.sign((kind, *context, signed_claim))
    if kind == "pre-prepare":
        message = PrePrepare(sequence=context[0], view=context[1], requests=(), digest=claim,
                             primary_signature=signature)
        return message, (kind, signer, context, claim, None, variant != "forged", message)
    message = PbftViewChange(new_view=context[0], replica_id=culprit, last_stable=claim,
                             prepared=(), signature=signature)
    return message, (kind, culprit, context, claim, None, variant == "valid", message)


#: ``(kind, culprit, context, claims, scheme)`` of one statement group;
#: few culprits and contexts, so groups of different draws meet too.
_groups = st.one_of(
    st.tuples(
        st.just("pre-prepare"), st.integers(0, 1), st.sampled_from([(1, 0), (2, 0)]),
        st.just(["d0", "d1", "d2"]), st.none(),
    ),
    st.tuples(
        st.just("view-change"), st.integers(0, 1), st.sampled_from([(1,), (2,)]),
        st.just([0, 4, 8]), st.none(),
    ),
    st.tuples(
        st.just("share"), st.integers(0, 1), st.just(("sign", 1, 0)),
        st.just(["d0", "d1", "d2"]), st.sampled_from(["sigma", "tau"]),
    ),
    st.tuples(
        st.just("share"), st.integers(0, 1), st.just(("state", 1)),
        st.just(["d0", "d1"]), st.just("pi"),
    ),
)


@st.composite
def _logs(draw):
    """A log of valid, forged, other-signer and repeated copies of a few
    groups' statements, in random order: ``(message, statement)`` pairs."""
    copies = []
    for kind, culprit, context, claims, scheme in draw(st.lists(_groups, min_size=1, max_size=4)):
        for _ in range(draw(st.integers(1, 4))):
            claim = draw(st.sampled_from(claims))
            variant = draw(st.sampled_from(["valid", "valid", "forged", "other"]))
            copies.append(_signed_copy(kind, culprit, context, claim, scheme, variant))
    repeats = draw(st.lists(st.sampled_from(copies), max_size=4))
    return draw(st.permutations(copies + repeats))


def _reference(statements):
    """Per group, the sorted claims with a verifying copy (the first such
    copy each), the first paired with each other, groups in emission order."""
    groups = {}
    for kind, culprit, context, claim, scheme, verifies, signed in statements:
        claims = groups.setdefault((kind, culprit, context, scheme), {})
        if verifies:
            claims.setdefault(claim, signed)

    def order(group):
        kind, culprit, context, scheme = group
        if kind == "share":
            return (_KINDS.index(kind), scheme, culprit) + context
        return (_KINDS.index(kind),) + context + (culprit,)

    pieces = []
    for group in sorted(groups, key=order):
        kind, culprit, context, _scheme = group
        verified = sorted(groups[group].items())
        for claim, signed in verified[1:]:
            pieces.append((kind, culprit, context, verified[0][0], claim,
                           id(verified[0][1]), id(signed)))
    return pieces


@settings(max_examples=100, deadline=None)
@given(logged=_logs())
def test_find_equivocations_matches_a_brute_force_reference(logged):
    records = [(0, 1, message) for message, _statement in logged]
    keys = {i: _SETUP.replica_verify_key(i) for i in range(4)}
    evidence = find_equivocations(records, keys, _SCHEMES)
    found = [
        (e.kind, e.culprit, e.context, e.digest_a, e.digest_b, id(e.message_a), id(e.message_b))
        for e in evidence
    ]
    assert found == _reference([statement for _message, statement in logged])
    for piece in evidence:
        assert verify_evidence(piece, keys, _SCHEMES)
        kind = _KINDS[(_KINDS.index(piece.kind) + 1) % len(_KINDS)]
        for field, value in (
            ("kind", kind),
            ("culprit", piece.culprit + 1),
            ("context", piece.context + (0,)),
            ("digest_a", piece.digest_b),
            ("digest_b", piece.digest_a),
            ("message_a", piece.message_b),
            ("message_b", piece.message_a),
        ):
            assert not verify_evidence(dataclasses.replace(piece, **{field: value}), keys, _SCHEMES)
