"""Unit tests for the mock group."""

import random

import pytest

from repro.crypto.mockgroup import DEFAULT_GROUP, MockGroup
from repro.errors import CryptoError


def lagrange_coefficient(group, index, indices):
    """Reference: the textbook Lagrange coefficient at zero for ``index`` over
    ``indices``, one modular inversion per call."""
    num, den = 1, 1
    for j in indices:
        if j != index:
            num = (num * (-j)) % group.order
            den = (den * (index - j)) % group.order
    return (num * pow(den, -1, group.order)) % group.order


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
        shares[i] * lagrange_coefficient(group, i, indices) for i in indices
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
            expected = tuple(lagrange_coefficient(group, i, indices) for i in indices)
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
    expected = tuple(lagrange_coefficient(group, i, indices) for i in indices)
    assert group.lagrange_coefficients(indices) == expected
    # Interpolating the constant polynomial: the coefficients sum to one.
    assert sum(expected) % group.order == 1


def test_lagrange_coefficients_inverse_tables_grow_in_steps_and_fit_small_primes():
    """The inverse tables are grown by recurrence up to the largest index
    seen; growing them piecemeal, on a small prime order too, changes nothing."""
    for group in (MockGroup(), MockGroup(order=101)):
        for indices in ([2, 1], [5, 1, 9], [30, 4, 17, 2], [100], [3, 100, 1]):
            expected = tuple(lagrange_coefficient(group, i, indices) for i in indices)
            assert group.lagrange_coefficients(indices) == expected


def test_lagrange_coefficients_reject_degenerate_index_sets():
    group = MockGroup()
    for indices in ([2, 2, 3], [0, 1, 2], [-1, 4]):
        with pytest.raises(CryptoError):
            group.lagrange_coefficients(indices)
