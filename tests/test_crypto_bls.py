"""Unit tests for the mock group and BLS signatures."""

import random

import pytest

from repro.crypto.bls import (
    bls_aggregate,
    bls_keygen,
    bls_sign,
    bls_verify,
    bls_verify_aggregate,
)
from repro.crypto.mockgroup import DEFAULT_GROUP, MockGroup
from repro.errors import CryptoError


def test_group_addition_and_negation():
    group = MockGroup()
    a = group.element(10)
    b = group.element(25)
    assert (a + b).value == 35
    assert (a - a).value == 0
    assert (-a + a).value == 0


def test_group_scaling_is_bilinear_under_pairing():
    group = MockGroup()
    g = group.generator
    left = g.scale(6)
    right = g.scale(7)
    assert group.pairing(left, right) == group.pairing(g.scale(42), g)


def test_pairing_rejects_mismatched_groups():
    small = MockGroup(order=97)
    with pytest.raises(CryptoError):
        DEFAULT_GROUP.pairing(small.generator, DEFAULT_GROUP.generator)


def test_lagrange_coefficients_reconstruct_secret():
    group = MockGroup()
    # Polynomial p(x) = 5 + 3x over the group order, threshold 2.
    shares = {i: (5 + 3 * i) % group.order for i in (1, 2, 3)}
    indices = [1, 3]
    secret = sum(
        shares[i] * group.lagrange_coefficient(i, indices) for i in indices
    ) % group.order
    assert secret == 5


LAGRANGE_SHAPES = [
    (4, 2), (4, 3), (4, 4), (13, 5), (13, 9), (53, 17), (53, 35), (53, 51), (209, 65), (209, 193),
]


@pytest.mark.parametrize("n,k", LAGRANGE_SHAPES)
def test_lagrange_coefficients_match_the_per_index_reference(n, k):
    """The closed form over the contiguous hull of the signer set against the
    textbook double loop, on the SBFT threshold shapes up to the paper's
    n=209: random subsets, in sorted, reversed and shuffled index order."""
    group = MockGroup()
    rng = random.Random(1000 * n + k)
    for _ in range(5):
        subset = rng.sample(range(1, n + 1), k)
        for indices in (subset, sorted(subset), sorted(subset, reverse=True)):
            expected = tuple(group.lagrange_coefficient(i, indices) for i in indices)
            assert group.lagrange_coefficients(indices) == expected


@pytest.mark.parametrize(
    "indices",
    [
        [1],  # k = 1: the share is the secret
        [7],
        list(range(1, 36)),  # fully contiguous from 1: nothing missing
        list(range(19, 54)),  # fully contiguous, not from 1
        [1, 209],  # maximal gap: everything between is missing
        [1, 2, 3, 207, 208, 209],
        list(range(1, 53, 2)),  # every other index
    ],
)
def test_lagrange_coefficients_edge_shapes(indices):
    group = MockGroup()
    expected = tuple(group.lagrange_coefficient(i, indices) for i in indices)
    assert group.lagrange_coefficients(indices) == expected
    # Interpolating the constant polynomial: the coefficients sum to one.
    assert sum(expected) % group.order == 1


def test_lagrange_coefficients_inverse_tables_grow_in_steps_and_fit_small_primes():
    """The inverse tables are grown by recurrence up to the largest index
    seen; growing them piecemeal, on a small prime order too, changes nothing."""
    for group in (MockGroup(), MockGroup(order=101)):
        for indices in ([2, 1], [5, 1, 9], [30, 4, 17, 2], [100], [3, 100, 1]):
            expected = tuple(group.lagrange_coefficient(i, indices) for i in indices)
            assert group.lagrange_coefficients(indices) == expected


def test_lagrange_coefficients_reject_degenerate_index_sets():
    group = MockGroup()
    for indices in ([2, 2, 3], [0, 1, 2], [-1, 4]):
        with pytest.raises(CryptoError):
            group.lagrange_coefficients(indices)


def test_element_encoding_is_33_bytes():
    assert len(DEFAULT_GROUP.generator.encode()) == 33


def test_bls_sign_verify_roundtrip():
    key = bls_keygen(seed=1)
    signature = bls_sign(key, "message")
    assert bls_verify(key.public, "message", signature)
    assert not bls_verify(key.public, "other message", signature)


def test_bls_verify_fails_with_wrong_key():
    key_a = bls_keygen(seed=1)
    key_b = bls_keygen(seed=2)
    signature = key_a.sign("m")
    assert not bls_verify(key_b.public, "m", signature)


def test_bls_keygen_deterministic():
    assert bls_keygen(seed=9).secret == bls_keygen(seed=9).secret
    assert bls_keygen(seed=9).secret != bls_keygen(seed=10).secret


def test_bls_aggregate_verifies_against_combined_keys():
    keys = [bls_keygen(seed=i) for i in range(4)]
    signatures = [k.sign("shared") for k in keys]
    aggregate = bls_aggregate(signatures, signer_ids=range(4))
    assert bls_verify_aggregate([k.public for k in keys], "shared", aggregate)
    # Leaving one key out must break verification.
    assert not bls_verify_aggregate([k.public for k in keys[:-1]], "shared", aggregate)


def test_bls_aggregate_rejects_empty():
    with pytest.raises(CryptoError):
        bls_aggregate([])


def test_signature_size_matches_bls_encoding():
    key = bls_keygen(seed=3)
    assert key.sign("x").size_bytes == 33
