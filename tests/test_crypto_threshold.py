"""Unit and property tests for the threshold signature schemes."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.adversary.behaviours import _ForgingScheme
from repro.crypto.mockgroup import MockGroup
from repro.crypto.threshold import ThresholdDealer
from repro.errors import CryptoError, InvalidSignatureShare


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


def test_combine_filtering_drops_bad_shares(scheme):
    shares = [scheme.sign_share(i, "msg") for i in range(5)]
    shares += [scheme.forge_share(i, "msg") for i in (5, 6)]
    combined = scheme.combine_filtering(shares)
    assert scheme.verify(combined)


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
