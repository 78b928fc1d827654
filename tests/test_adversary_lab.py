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
from repro.core.messages import PrePrepare
from repro.errors import ConfigurationError
from repro.experiments import harness
from repro.experiments.harness import run_point
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
