"""Tests for the adversary strategy lab (``repro.adversary``).

Covers the episode runner and oracles, fixed-seed determinism (including
``--jobs`` worker identity), the planted-weakness acceptance path (the search
must find the unsafe-quorum safety hole and minimize it), equivocation
forensics (evidence must verify against the signature layer and fail when
tampered with), and the strategy registry/parameter plumbing.
"""

import dataclasses

import pytest

from repro.adversary import (
    STRATEGIES,
    STRATEGY_KINDS,
    Adversary,
    EpisodeSpec,
    run_episode,
    strategies,
)
from repro.adversary.forensics import (
    EquivocationEvidence,
    MessageLog,
    find_equivocations,
    verify_evidence,
)
from repro.adversary.lab import PLANTED_WEAK_QUORUM, SafetyOracle, WeakQuorumConfig
from repro.adversary.minimize import minimize, non_default_params
from repro.adversary.search import (
    SWEEP,
    eligible_strategies,
    minimize_violations,
    sample_episodes,
)
from repro.core.config import SBFTConfig
from repro.core.keys import TrustedSetup
from repro.errors import ConfigurationError
from repro.experiments import harness
from repro.protocols.registry import get_protocol


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
        run_episode(EpisodeSpec(protocol="pbft", strategy="nope", seed=0))
    with pytest.raises(ConfigurationError, match="no parameter"):
        STRATEGIES["equivocating-primary"]({"bogus": 1})


def test_eligibility_respects_protocol_kind():
    assert "bad-shares" in eligible_strategies("sbft-c0", STRATEGY_KINDS)
    assert "bad-shares" not in eligible_strategies("pbft", STRATEGY_KINDS)
    assert "stale-checkpoint" not in eligible_strategies("sbft-c0", STRATEGY_KINDS)
    assert get_protocol("sbft-c0").kind == "sbft"


def test_episode_spec_roundtrips_through_dict():
    spec = EpisodeSpec(
        protocol="pbft",
        strategy="delay-commit-collectors",
        seed=42,
        params=(("extra_delay", 0.1), ("victims", 2)),
        plant_weak_quorum=True,
    )
    assert EpisodeSpec.from_dict(spec.as_dict()) == spec
    assert "weak-quorum" in spec.describe()


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------
def test_safety_oracle_only_counts_honest_conflicts():
    oracle = SafetyOracle()
    oracle.observe(0, 5, "digest-a")
    oracle.observe(1, 5, "digest-b")
    assert oracle.violations(honest=frozenset({0, 1})) == ((5, ("digest-a", "digest-b")),)
    # A conflict introduced solely by a compromised replica is not a
    # violation: the oracle judges honest replicas only.
    assert oracle.violations(honest=frozenset({0})) == ()
    oracle.observe(2, 6, "digest-c")
    assert oracle.violations(honest=frozenset({2})) == ()


def test_all_strategies_lose_against_sound_protocols():
    """Against unmodified SBFT/PBFT every scripted strategy must violate
    neither oracle (decision-identical fixed-seed episodes)."""
    for protocol in ("sbft-c0", "pbft"):
        kind = get_protocol(protocol).kind
        for name, cls in sorted(STRATEGIES.items()):
            if kind not in cls.PROTOCOLS:
                continue
            report = run_episode(EpisodeSpec(protocol=protocol, strategy=name, seed=7))
            assert report.verdict() == "ok", (protocol, name, report.verdict())
            assert report.completed == report.expected


def test_episode_is_deterministic():
    spec = EpisodeSpec(
        protocol="pbft", strategy="equivocating-primary", seed=1, plant_weak_quorum=True
    )
    first = run_episode(spec, forensics=True)
    second = run_episode(spec, forensics=True)
    assert first.violations == second.violations
    assert first.sim_time == second.sim_time
    assert first.events_processed == second.events_processed
    assert first.evidence_count == second.evidence_count
    assert [e.digest_a for e in first.evidence] == [e.digest_a for e in second.evidence]


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
    base = EpisodeSpec(protocol="pbft", strategy="equivocating-primary", seed=1)
    sound = run_episode(base)
    assert sound.verdict() == "ok"

    planted = run_episode(
        EpisodeSpec(
            protocol="pbft", strategy="equivocating-primary", seed=1, plant_weak_quorum=True
        ),
        forensics=True,
    )
    assert not planted.safety_ok
    assert planted.violations, "expected divergent executions at some sequence"
    for _sequence, digests in planted.violations:
        assert len(digests) >= 2
    assert planted.evidence_count > 0


def test_search_finds_and_minimizes_planted_violation():
    specs = sample_episodes(episodes=60, seed=0, plant_weak_quorum=True)
    rows = harness.run(SWEEP, specs)
    violating = [row for row in rows if row["verdict"] != "ok"]
    assert violating, "60-episode search must find the planted safety hole"
    entries = minimize_violations(specs, rows)
    assert entries
    for entry in entries:
        assert not entry["expect"]["safety_ok"]
        assert entry["non_default_params"] <= 3
        minimized = EpisodeSpec.from_dict(entry["spec"])
        assert not run_episode(minimized).safety_ok


def test_sampling_is_deterministic_and_jobs_identical():
    assert sample_episodes(8, seed=5) == sample_episodes(8, seed=5)
    specs = sample_episodes(6, seed=5)

    def decide(jobs):
        rows = harness.run(SWEEP, specs, jobs=jobs)
        return [{k: v for k, v in row.items() if k not in harness.HOST_FIELDS} for row in rows]

    assert decide(1) == decide(2)


# ----------------------------------------------------------------------
# Minimizer
# ----------------------------------------------------------------------
def test_minimizer_strips_noise_params_with_synthetic_predicate():
    spec = EpisodeSpec(
        protocol="pbft",
        strategy="delay-commit-collectors",
        seed=3,
        params=(("duration", 4.0), ("extra_delay", 0.5), ("start", 0.5), ("victims", 2)),
    )

    def needs_only_delay(candidate: EpisodeSpec) -> bool:
        return dict(candidate.params).get("extra_delay", 0.02) == 0.5

    minimized = minimize(spec, needs_only_delay)
    assert non_default_params(minimized) == {"extra_delay": 0.5}


def test_minimizer_returns_nonreproducing_spec_unchanged():
    spec = EpisodeSpec(protocol="pbft", strategy="silent-replica", seed=3)
    assert minimize(spec, lambda _s: False) == spec


# ----------------------------------------------------------------------
# Forensics
# ----------------------------------------------------------------------
def test_equivocation_evidence_verifies_and_tampering_fails():
    spec = EpisodeSpec(
        protocol="pbft", strategy="equivocating-primary", seed=1, plant_weak_quorum=True
    )
    report = run_episode(spec, forensics=True)
    assert report.evidence_count > 0
    keys = _verify_keys(seed=1)
    for evidence in report.evidence:
        assert evidence.kind == "pre-prepare"
        assert evidence.culprit == 0
        assert verify_evidence(evidence, keys)

    original = report.evidence[0]
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
    report = run_episode(
        EpisodeSpec(
            protocol="pbft",
            strategy="viewchange-spam",
            seed=7,
            params=(("equivocate_claims", True),),
        ),
        forensics=True,
    )
    assert report.verdict() == "ok"  # spam is absorbed; liveness holds
    kinds = {evidence.kind for evidence in report.evidence}
    assert "view-change" in kinds
    keys = _verify_keys(seed=7)
    for evidence in report.evidence:
        assert verify_evidence(evidence, keys)
        assert evidence.culprit in report.compromised


def test_message_log_bounds_memory():
    log = MessageLog(limit=3)
    for index in range(5):
        log.tap(0, 1, f"message-{index}")
    assert len(log.records) == 3
    assert log.dropped == 2


def test_share_equivocation_detected_and_verified():
    """Forged conflicting shares from one signer in one signing context."""
    config = SBFTConfig(f=1, c=0)
    setup = TrustedSetup(config, seed=3)
    sigma = setup.sigma
    message_a = ("sign", 1, 0, "digest-a")
    message_b = ("sign", 1, 0, "digest-b")
    share_a = sigma.sign_share(2, message_a)
    share_b = sigma.sign_share(2, message_b)

    class Carrier:
        def __init__(self, share):
            self.sigma_share = share

    records = [(2, 0, Carrier(share_a)), (2, 1, Carrier(share_b))]
    schemes = {sigma.name: sigma}
    evidence = find_equivocations(records, _verify_keys(seed=3), schemes)
    assert len(evidence) == 1
    found = evidence[0]
    assert found.kind == "share"
    assert found.culprit == 2
    assert verify_evidence(found, {}, schemes)
    # An invalid (forged) share can never be half of valid evidence.
    forged = sigma.forge_share(2, message_b)
    records_forged = [(2, 0, Carrier(share_a)), (2, 1, Carrier(forged))]
    assert find_equivocations(records_forged, _verify_keys(seed=3), schemes) == []


def test_honest_runs_produce_no_evidence():
    report = run_episode(
        EpisodeSpec(protocol="pbft", strategy="silence-commit-collectors", seed=11),
        forensics=True,
    )
    assert report.verdict() == "ok"
    assert report.evidence_count == 0
