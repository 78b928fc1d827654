"""A structurally faithful (but insecure) pairing-friendly group.

Real BLS signatures live in an elliptic-curve group ``G`` of prime order ``q``
with a bilinear pairing ``e: G x G -> G_T``.  This module replaces ``G`` with
the additive group ``Z_q`` — a group element is just its discrete logarithm —
and the pairing with field multiplication::

    e(aG, bG) = ab  (mod q)

Every identity that BLS relies on holds exactly (bilinearity, the hardness
assumptions obviously do not), so threshold signing, verification and
Lagrange interpolation in the exponent run the same arithmetic a real library
performs, just over a trivially breakable group.  :mod:`repro.crypto.costs`
charges realistic times for each operation so the simulation is not distorted
by the cheap math.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from repro.errors import CryptoError
from repro.records import frozen_record

# Order of the BN-P254 group (the curve the paper uses).  Any large prime
# works; using the real order keeps scalar arithmetic representative.
BN254_ORDER = 0x2523648240000001BA344D8000000007FF9F800000000010A10000000000000D


@frozen_record
class GroupElement:
    """An element of the mock group, represented by its exponent mod ``q``."""

    value: int
    order: int = BN254_ORDER

    def scale(self, scalar: int) -> "GroupElement":
        """Scalar multiplication (``scalar * P``)."""
        return GroupElement((self.value * (scalar % self.order)) % self.order, self.order)


class MockGroup:
    """The mock bilinear group: scalar field, hash-to-group and pairing."""

    def __init__(self, order: int = BN254_ORDER):
        if order < 3:
            raise CryptoError("group order must be a prime > 2")
        self.order = order
        self.generator = GroupElement(1, order)
        # ``1/k`` and ``1/k!`` mod ``order`` for k = 0, 1, ... (entry 0 of the
        # first is a placeholder); grown on demand by
        # :meth:`lagrange_coefficients` up to the largest index seen.
        self._inverses: List[int] = [0, 1]
        self._inverse_factorials: List[int] = [1, 1]

    def hash_to_group(self, digest_int: int) -> GroupElement:
        """Hash a digest (as an integer) onto the group."""
        value = digest_int % self.order
        if value == 0:
            value = 1
        return GroupElement(value, self.order)

    def pairing(self, left: GroupElement, right: GroupElement) -> int:
        """The mock bilinear pairing ``e(aG, bG) = ab mod q``."""
        if left.order != self.order or right.order != self.order:
            raise CryptoError("pairing arguments from a different group")
        return (left.value * right.value) % self.order

    def scalar(self, rng_value: int) -> int:
        """Reduce an arbitrary integer to a non-zero scalar."""
        value = rng_value % self.order
        return value if value != 0 else 1

    def lagrange_coefficients(self, indices: Sequence[int]) -> tuple[int, ...]:
        """All Lagrange coefficients at zero over ``indices``, index-aligned.

        Equal to the textbook per-index product over distinct positive
        ``indices`` (Shamir x-coordinates), in O(k * (span - k) + span)
        small-integer steps instead of O(k^2) field multiplications, where
        ``span = max - min + 1``.  With ``lo``/``hi``
        the extremes of the set, ``missing`` the integers between them that
        are not in it and ``P`` the product of all indices::

            lambda_i = P * prod(m - i for m in missing)
                       / (i * (-1)^(i - lo) * (i - lo)! * (hi - i)!)

        because the product of ``j - i`` over the *whole* range ``lo..hi`` is
        a pair of factorials, and the set differs from the range only by
        ``missing``.  The inverses of ``i`` and of the factorials come from
        tables the group grows on demand, so a call performs no modular
        inversion at all.
        """
        lo, hi = min(indices), max(indices)
        present = set(indices)
        if lo < 1 or len(present) != len(indices):
            raise CryptoError("interpolation indices must be distinct and positive")
        order = self.order
        inverses, inverse_factorials = self._inverses, self._inverse_factorials
        # ``1/k = -(q // k) / (q mod k)`` for a prime ``q``: each new entry is
        # one multiplication by an earlier one, and ``1/k!`` follows from it.
        for k in range(len(inverses), hi + 1):
            inverses.append(-(order // k) * inverses[order % k] % order)
            inverse_factorials.append(inverse_factorials[-1] * inverses[k] % order)
        missing = [m for m in range(lo, hi + 1) if m not in present]
        product = math.prod(indices) % order
        coeffs = []
        for index in indices:
            # The offsets are machine-sized, so the running product stays a
            # few words long and is reduced once.
            num = product * inverses[index] % order
            for m in missing:
                num *= m - index
            coeff = num % order * inverse_factorials[index - lo] % order
            coeff = coeff * inverse_factorials[hi - index] % order
            coeffs.append(-coeff % order if (index - lo) & 1 else coeff)
        return tuple(coeffs)


DEFAULT_GROUP = MockGroup()
