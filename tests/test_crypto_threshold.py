"""Unit and property tests for the threshold signature schemes, and the
collectors' optimistic combine: shares filed unchecked, the combined
signature checked once, shares checked one by one only when that fails."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from helpers import make_bare_replica, make_request, run_small_cluster
from repro.adversary.behaviours import _ForgingScheme, bad_shares
from repro.core.config import SBFTConfig
from repro.core.messages import (
    FullCommitProof,
    FullCommitProofSlow,
    FullExecuteProof,
    Prepare,
    SignShare,
    SignState,
)
from repro.core.replica import SBFTReplica
from repro.crypto.mockgroup import MockGroup
from repro.crypto.threshold import ThresholdDealer
from repro.errors import CryptoError, InvalidSignatureShare
from repro.sim.faults import FaultPlan


@pytest.fixture(scope="module")
def scheme():
    return ThresholdDealer(num_signers=7, seed=3).deal("sigma", threshold=5)


def test_dealer_rejects_bad_thresholds():
    dealer = ThresholdDealer(num_signers=4, seed=0)
    with pytest.raises(CryptoError):
        dealer.deal("x", threshold=0)
    with pytest.raises(CryptoError):
        dealer.deal("x", threshold=5)
    with pytest.raises(CryptoError):
        ThresholdDealer(num_signers=0)


def test_share_sign_and_robust_verify(scheme):
    share = scheme.sign_share(2, "block-digest")
    assert scheme.verify_share(share)
    forged = scheme.forge_share(2, "block-digest")
    assert not scheme.verify_share(forged)


def test_share_from_unknown_signer_rejected(scheme):
    with pytest.raises(CryptoError):
        scheme.sign_share(99, "m")


def test_combine_exact_threshold(scheme):
    shares = [scheme.sign_share(i, "msg") for i in range(5)]
    combined = scheme.combine(shares)
    assert scheme.verify(combined)
    assert scheme.verify_message(combined, "msg")
    assert not scheme.verify_message(combined, "other")


def test_combine_any_subset_gives_same_valid_signature(scheme):
    subset_a = [scheme.sign_share(i, "msg") for i in (0, 1, 2, 3, 4)]
    subset_b = [scheme.sign_share(i, "msg") for i in (2, 3, 4, 5, 6)]
    sig_a = scheme.combine(subset_a)
    sig_b = scheme.combine(subset_b)
    # Threshold signatures are unique: any qualified subset yields the same value.
    assert sig_a.point == sig_b.point
    assert scheme.verify(sig_a) and scheme.verify(sig_b)


def test_gapped_and_contiguous_subsets_combine_to_one_point_at_n53():
    """The headline shape's tau scheme (n=53, k=35): a contiguous signer set,
    one with gaps and one given in reverse order interpolate the same point."""
    big = ThresholdDealer(num_signers=53, seed=5).deal("tau", threshold=35)
    gapped = list(range(0, 53, 2)) + list(range(1, 17, 2))
    subsets = [range(35), range(18, 53), range(52, 0, -1), gapped]
    points = {big.combine([big.sign_share(i, "msg") for i in subset]).point for subset in subsets}
    assert len(points) == 1
    assert big.verify_message(big.combine([big.sign_share(i, "msg") for i in gapped]), "msg")


def test_combine_too_few_shares_fails(scheme):
    shares = [scheme.sign_share(i, "msg") for i in range(4)]
    with pytest.raises(CryptoError):
        scheme.combine(shares)


def test_combine_rejects_invalid_share(scheme):
    shares = [scheme.sign_share(i, "msg") for i in range(4)]
    shares.append(scheme.forge_share(4, "msg"))
    with pytest.raises(InvalidSignatureShare):
        scheme.combine(shares)


def test_combine_rejects_mixed_messages(scheme):
    shares = [scheme.sign_share(i, "msg-a") for i in range(3)]
    shares += [scheme.sign_share(i, "msg-b") for i in (3, 4)]
    with pytest.raises(CryptoError):
        scheme.combine(shares)


def test_duplicate_shares_do_not_count_twice(scheme):
    shares = [scheme.sign_share(0, "msg")] * 5
    with pytest.raises(CryptoError):
        scheme.combine(shares)


def test_signature_rejected_under_other_scheme():
    dealer = ThresholdDealer(num_signers=4, seed=1)
    sigma = dealer.deal("sigma", 3)
    tau = dealer.deal("tau", 3)
    combined = sigma.combine([sigma.sign_share(i, "m") for i in range(3)])
    assert not tau.verify(combined)


def test_sbft_threshold_sizes():
    """The three SBFT schemes (sigma/tau/pi) coexist over one replica set."""
    f, c = 2, 1
    n = 3 * f + 2 * c + 1
    dealer = ThresholdDealer(num_signers=n, seed=5)
    sigma = dealer.deal("sigma", 3 * f + c + 1)
    tau = dealer.deal("tau", 2 * f + c + 1)
    pi = dealer.deal("pi", f + 1)
    for scheme in (sigma, tau, pi):
        shares = [scheme.sign_share(i, "digest") for i in range(scheme.threshold)]
        assert scheme.verify(scheme.combine(shares))


# ----------------------------------------------------------------------
# Provenance: a stamp or a stashed verdict only ever saves a computation
# ----------------------------------------------------------------------
@pytest.fixture
def pairings(monkeypatch):
    """Counts the pairings computed: two per share or combined check that
    takes the compute path, none for one answered by provenance."""
    calls = []
    real = MockGroup.pairing
    monkeypatch.setattr(
        MockGroup, "pairing", lambda self, a, b: calls.append(1) or real(self, a, b)
    )
    return calls


SIGNED = ("sign", 7, 0, "d" * 64)


def test_a_share_checked_by_its_own_scheme_costs_no_pairing(scheme, pairings):
    share = scheme.sign_share(2, SIGNED)
    assert share._stamp is not None and not pairings
    assert all(scheme.verify_share(share) for _ in range(9)) and not pairings
    # Another instance with the same public parameters (same dealer seed).
    twin = ThresholdDealer(num_signers=7, seed=3).deal("sigma", threshold=5)
    assert twin.verify_share(share) and not pairings


@pytest.mark.parametrize(
    "case",
    ["forged", "forging-scheme", "replace", "replace-message", "other-seed", "other-scheme",
     "unhashable"],
)
def test_shares_without_a_matching_stamp_are_computed(scheme, pairings, case):
    """Each of these takes the compute path (one pairing pair) and gets
    exactly the verdict a computation gives."""
    verifier, expected = scheme, True
    if case == "forged":
        share, expected = scheme.forge_share(2, SIGNED), False
    elif case == "forging-scheme":  # the byzantine behaviour's wrapper
        share, expected = _ForgingScheme(scheme).sign_share(2, SIGNED), False
    elif case == "replace":  # same fields: valid, but unstamped
        share = dataclasses.replace(scheme.sign_share(2, SIGNED))
    elif case == "replace-message":
        share = dataclasses.replace(scheme.sign_share(2, SIGNED), message=("sign", 8, 0, "d" * 64))
        expected = False
    elif case == "other-seed":  # same name, another deployment's keys
        share = scheme.sign_share(2, SIGNED)
        verifier, expected = ThresholdDealer(num_signers=7, seed=4).deal("sigma", 5), False
    elif case == "other-scheme":  # the same deployment's tau
        share = scheme.sign_share(2, SIGNED)
        verifier, expected = ThresholdDealer(num_signers=7, seed=3).deal("tau", 5), False
    else:  # a list could change after it was stamped
        share = scheme.sign_share(2, ["sign", 7, 0])
    assert share._stamp is None or case in ("other-seed", "other-scheme")
    assert verifier.verify_share(share) is expected
    # The computation rejects a share of another scheme by its name alone.
    assert len(pairings) == (0 if case == "other-scheme" else 2)


def test_combined_verdict_is_stashed_only_when_positive(scheme, pairings):
    shares = [scheme.sign_share(i, SIGNED) for i in range(5)]
    combined = scheme.combine(shares)
    assert not pairings and combined._verified is None  # stamped shares; combine stashes nothing
    assert scheme.verify(combined) and len(pairings) == 2
    assert all(scheme.verify(combined) for _ in range(9)) and len(pairings) == 2
    assert scheme.verify_message(combined, SIGNED) and len(pairings) == 2
    # Another deployment's scheme of the same name computes, and rejects.
    other = ThresholdDealer(num_signers=7, seed=4).deal("sigma", 5)
    assert not other.verify(combined) and len(pairings) == 4
    # A failed verification is not stashed: it is computed every time.
    bad = dataclasses.replace(combined, point=combined.point.scale(2))
    assert bad._verified is None
    assert not scheme.verify(bad) and not scheme.verify(bad)
    assert bad._verified is None and len(pairings) == 8
    # Nor is a verdict over a message that could change.
    listed = scheme.combine([scheme.sign_share(i, ["m"]) for i in range(5)])
    assert scheme.verify(listed) and listed._verified is None


def test_messages_are_matched_type_exactly():
    """``1.0 == 1`` in Python, not in the canonical encoding: a share over
    ``("sign", 7.0, ...)`` is valid for that message only."""
    dealer = ThresholdDealer(num_signers=4, seed=2)
    tau = dealer.deal("tau", 3)
    look_alike = ("sign", 7.0, 0, "d" * 64)
    assert look_alike == SIGNED
    shares = [tau.sign_share(0, look_alike)] + [tau.sign_share(i, SIGNED) for i in (1, 2)]
    assert all(tau.verify_share(share) for share in shares)
    with pytest.raises(CryptoError):
        tau.combine(shares)
    floated = tau.combine([tau.sign_share(i, look_alike) for i in range(3)])
    assert tau.verify(floated) and tau.verify_message(floated, look_alike)
    assert not tau.verify_message(floated, SIGNED)


@settings(max_examples=25, deadline=None)
@given(
    num_signers=st.integers(min_value=2, max_value=9),
    data=st.data(),
)
def test_property_any_qualified_subset_verifies(num_signers, data):
    threshold = data.draw(st.integers(min_value=1, max_value=num_signers))
    message = data.draw(st.text(min_size=0, max_size=20))
    subset = data.draw(
        st.sets(st.integers(min_value=0, max_value=num_signers - 1), min_size=threshold)
    )
    scheme = ThresholdDealer(num_signers=num_signers, seed=11).deal("p", threshold)
    shares = [scheme.sign_share(i, message) for i in sorted(subset)]
    combined = scheme.combine(shares)
    assert scheme.verify_message(combined, message)


@settings(max_examples=25, deadline=None)
@given(num_signers=st.integers(min_value=3, max_value=9), seed=st.integers(0, 1000))
def test_property_below_threshold_never_combines(num_signers, seed):
    threshold = num_signers  # strictest threshold
    scheme = ThresholdDealer(num_signers=num_signers, seed=seed).deal("q", threshold)
    shares = [scheme.sign_share(i, "m") for i in range(threshold - 1)]
    with pytest.raises(CryptoError):
        scheme.combine(shares)


# ----------------------------------------------------------------------
# The collectors' optimistic combine: every share is filed unchecked, the
# combined signature is checked once, and only a failed check (a forger)
# makes the collector check shares one by one
# ----------------------------------------------------------------------
COLLECTOR = SBFTConfig(f=1, batch_size=2, batch_timeout=0.01, fast_path_timeout=0.05)


def _collector():
    """-> (sim, replica, broadcasts, charges, signed): the view-0 primary
    (at c=0 every slot's only C-collector) with block 1 proposed; what it
    broadcasts and charges to its CPU from then on is recorded."""
    sim, _network, replica = make_bare_replica(SBFTReplica, COLLECTOR)
    client = COLLECTOR.n + 1
    replica.client_directory[0] = client
    broadcasts, charges = [], []
    replica._broadcast = broadcasts.append
    replica._send = lambda dst, message: None
    for timestamp in (1, 2):
        replica._on_client_request(make_request(timestamp), src=client)
    pre_prepare = broadcasts[-1]
    replica._on_pre_prepare(pre_prepare, src=0)
    replica.charge_cpu = charges.append
    return sim, replica, broadcasts, charges, ("sign", 1, 0, pre_prepare.digest)


def _sign_share(replica, signed, signer, forged=(), src=None, tau_share=None):
    """Replica ``signer``'s sign-share over ``signed`` (the schemes named in
    ``forged`` forged), delivered as sent by ``src`` (default: the signer)."""
    keys = replica.keys
    share = {name: getattr(getattr(keys, name), "forge_share" if name in forged else "sign_share")
             for name in ("sigma", "tau")}
    replica._on_sign_share(SignShare(
        sequence=1, view=0, replica_id=signer, digest=signed[3],
        sigma_share=share["sigma"](signer, signed),
        tau_share=tau_share or share["tau"](signer, signed),
    ), src=signer if src is None else src)


def _sent(broadcasts, cls):
    return [message for message in broadcasts if isinstance(message, cls)]


def _attempt(costs, k):
    """What one combine of ``k`` shares and its one check cost."""
    return costs.combine_cost(k) + costs.bls_verify_combined


def test_a_forged_sigma_share_is_dropped_at_combine_time_and_checked_once():
    sim, replica, broadcasts, charges, signed = _collector()
    costs, k = replica.costs, COLLECTOR.sigma_threshold
    _sign_share(replica, signed, 3, forged=("sigma",))
    for signer in (0, 1):
        _sign_share(replica, signed, signer)
    assert charges == [] and replica.stats.combine_fallbacks == 0      # nothing checked yet
    _sign_share(replica, signed, 2)                 # k shares: the combine fails its check
    bucket = replica.log.slot(1).shares.votes(("sigma", signed))
    assert list(bucket) == [0, 1, 2] and not _sent(broadcasts, FullCommitProof)
    assert charges == [_attempt(costs, k), 4 * costs.bls_batch_verify_per_share]
    assert replica.stats.combine_fallbacks == 1
    sim.run(until=sim.now + 0.06)                   # τ carries the slot instead
    (prepare,) = _sent(broadcasts, Prepare)
    assert prepare.tau_signature.signer_ids == (0, 1, 3)   # 3 forged σ only
    assert replica.stats.combine_fallbacks == 1


def test_a_blamed_forger_resending_its_share_costs_the_collector_one_hash_per_share():
    """Its check named the forger: the resent share is not filed, so it
    costs the arrival's hashes and no second combine or fallback."""
    sim, replica, broadcasts, charges, signed = _collector()
    for signer in (3, 0, 1, 2):
        _sign_share(replica, signed, signer, forged=("sigma",) if signer == 3 else ())
    assert replica.stats.combine_fallbacks == 1 and replica._blamed == {3}
    del charges[:]
    busy = replica.cpu.total_busy_time
    forged = replica.keys.sigma.forge_share(3, signed)
    resend = SignShare(sequence=1, view=0, replica_id=3, digest=signed[3], sigma_share=forged,
                       tau_share=replica.keys.tau.sign_share(3, signed))
    for _ in range(3):
        replica.deliver(resend, 3)
    sim.run(until=sim.now + 0.01)
    assert charges == [] and replica.stats.combine_fallbacks == 1
    assert replica.cpu.total_busy_time - busy == pytest.approx(3 * 2 * replica.costs.hash_op)
    assert list(replica.log.slot(1).shares.votes(("sigma", signed))) == [0, 1, 2]


def test_a_forged_tau_share_is_dropped_at_combine_time_and_checked_once():
    sim, replica, broadcasts, charges, signed = _collector()
    tau, costs, k = replica.keys.tau, replica.costs, COLLECTOR.tau_threshold
    _sign_share(replica, signed, 3, forged=("sigma", "tau"))
    _sign_share(replica, signed, 0)
    _sign_share(replica, signed, 1)
    bucket = replica.log.slot(1).shares.votes(("tau", signed))
    assert list(bucket) == [3, 0, 1] and charges == []
    sim.run(until=sim.now + 0.06)                   # the σ wait ends: τ combined, check fails
    assert list(bucket) == [0, 1] and not _sent(broadcasts, Prepare)
    assert charges == [_attempt(costs, k), 3 * costs.bls_batch_verify_per_share]
    del charges[:]
    _sign_share(replica, signed, 2)                 # σ fails (its forged share), τ does not
    sim.run(until=sim.now + 0.06)
    (prepare,) = _sent(broadcasts, Prepare)
    assert prepare.tau_signature.signer_ids == (0, 1, 2)
    assert tau.verify_message(prepare.tau_signature, signed)
    # No share is checked twice: 0 and 1 were, and the σ fallback is the σ bucket's.
    per_share = costs.bls_batch_verify_per_share
    assert charges == [_attempt(costs, 4), 4 * per_share, _attempt(costs, k)]
    assert replica.stats.combine_fallbacks == 2


def test_a_fallback_that_finds_enough_valid_shares_combines_them_unchecked():
    sim, replica, broadcasts, charges, signed = _collector()
    costs, per_share = replica.costs, replica.costs.bls_batch_verify_per_share
    _sign_share(replica, signed, 3, forged=("sigma", "tau"))
    for signer in (0, 1, 2):
        _sign_share(replica, signed, signer)
    del charges[:]                                  # the σ bucket's own fallback
    sim.run(until=sim.now + 0.06)                   # τ: [3, 0, 1] fails, 0, 1, 2 are valid
    (prepare,) = _sent(broadcasts, Prepare)
    assert prepare.tau_signature.signer_ids == (0, 1, 2)
    k = COLLECTOR.tau_threshold
    assert charges == [_attempt(costs, k), 4 * per_share, costs.combine_cost(k)]
    assert replica.stats.combine_fallbacks == 2


def test_a_forged_pi_share_is_dropped_at_combine_time_and_checked_once():
    sim, _network, replica = make_bare_replica(SBFTReplica, COLLECTOR, node_id=1)
    broadcasts, charges = [], []
    replica._broadcast, replica.charge_cpu = broadcasts.append, charges.append
    pi, costs, k = replica.keys.pi, replica.costs, COLLECTOR.pi_threshold
    sequence = next(s for s in range(1, 20) if replica._is_e_collector(s))
    signed = ("state", sequence, "d")

    def sign_state(signer, forged=False):
        share = (pi.forge_share if forged else pi.sign_share)(signer, signed)
        replica._on_sign_state(SignState(
            sequence=sequence, replica_id=signer, state_digest="d", pi_share=share), src=signer)

    sign_state(3, forged=True)
    sign_state(1)                                   # k = 2 shares: the check fails
    assert list(replica.log.slot(sequence).shares.votes(("pi", signed))) == [1]
    assert charges == [_attempt(costs, k), 2 * costs.bls_batch_verify_per_share]
    sign_state(2)
    (proof,) = _sent(broadcasts, FullExecuteProof)
    assert proof.pi_signature.signer_ids == (1, 2) and pi.verify_message(proof.pi_signature, signed)
    assert charges[2:] == [_attempt(costs, k)] and replica.stats.combine_fallbacks == 1


def test_a_share_not_sent_by_its_signer_is_not_filed():
    sim, replica, broadcasts, charges, signed = _collector()
    relayed = replica.keys.tau.sign_share(2, signed)        # valid, but replica 1 sends it
    _sign_share(replica, signed, 1, tau_share=relayed)
    slot = replica.log.slot(1)
    assert slot.shares.votes(("tau", signed)) == {} and list(slot.shares.votes(("sigma", signed))) == [1]
    _sign_share(replica, signed, 2, forged=("tau",), src=3)  # a forgery in replica 2's name
    assert slot.shares.votes(("tau", signed)) == {}
    _sign_share(replica, signed, 2)
    assert list(slot.shares.votes(("tau", signed))) == [2]


def test_a_healthy_fast_path_slot_checks_one_combined_signature_and_no_share():
    sim, replica, broadcasts, charges, signed = _collector()
    for signer in range(COLLECTOR.n):
        _sign_share(replica, signed, signer)
    sim.run(until=sim.now + 0.06)
    assert _sent(broadcasts, FullCommitProof) and not _sent(broadcasts, Prepare)
    assert charges == [_attempt(replica.costs, COLLECTOR.sigma_threshold)]   # σ only
    assert replica.stats.combine_fallbacks == 0


def test_only_a_forger_makes_a_cluster_collector_fall_back():
    _cluster, healthy = run_small_cluster("sbft-c0", seed=11)
    # The primary crashes: with one replica dead at c=0 every later block is slow.
    _cluster, slow = run_small_cluster(
        "sbft-c0", requests_per_client=8, seed=3, fault_plan=FaultPlan.crash_first(1, at_time=0.02))
    assert max(stats["blocks_committed_slow"] for stats in slow.replica_stats.values()) > 0
    for result in (healthy, slow):
        assert all(stats["combine_fallbacks"] == 0 for stats in result.replica_stats.values())


#: The proofs combined from shares ``bad_shares`` forges (its checkpoint π
#: share stays valid).
PROOFS = {FullCommitProof: "sigma_signature", Prepare: "tau_signature",
          FullCommitProofSlow: "tau_tau_signature", FullExecuteProof: "pi_signature"}


@pytest.mark.parametrize("protocol,forger", [("sbft-c0", 3), ("sbft-c8", 5), ("linear-pbft", 2)])
def test_a_bad_shares_replica_never_gets_a_share_into_a_proof(protocol, forger):
    """A forger's shares are filed like any other; every combine they spoil
    falls back, and no proof any replica sends names the forger."""
    proofs = []

    def tap(cluster):
        cluster.network.add_tap(lambda src, dst, message: type(message) in PROOFS and proofs.append(
            getattr(message, PROOFS[type(message)])))

    cluster, result = run_small_cluster(
        protocol, c=1 if protocol == "sbft-c8" else None, requests_per_client=8, seed=27,
        config_overrides={"checkpoint_interval": 4}, post_build=tap,
        fault_plan=FaultPlan.byzantine([forger], bad_shares, 0.0))
    assert result.run.completed_requests == 16
    honest = [replica for node, replica in cluster.replicas.items() if node != forger]
    assert len({replica.service.digest() for replica in honest
                if replica.last_executed == honest[0].last_executed}) == 1
    assert sum(stats["combine_fallbacks"] for stats in result.replica_stats.values()) > 0
    assert proofs and all(forger not in proof.signer_ids for proof in proofs)
