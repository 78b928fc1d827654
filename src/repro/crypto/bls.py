"""BLS signatures over the mock pairing group.

Implements plain BLS (keygen / sign / verify), signature aggregation and the
n-out-of-n *group signature* optimization the paper's implementation uses in
the fast path when no failure is detected (Section VIII): aggregating all n
shares is cheaper than a k-out-of-n threshold combine because no Lagrange
interpolation is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.crypto.hashing import sha256_int
from repro.crypto.mockgroup import DEFAULT_GROUP, GroupElement, MockGroup
from repro.errors import CryptoError, InvalidSignature
from repro.records import frozen_record


@frozen_record
class BLSSignature:
    """A BLS signature (or aggregate) on a message digest."""

    size_bytes = 33  # compressed curve point

    point: GroupElement
    signer_ids: tuple = ()

    def encode(self) -> bytes:
        return self.point.encode()


@dataclass(frozen=True)
class BLSKeyPair:
    """A BLS secret/public key pair."""

    secret: int
    public: GroupElement
    group: MockGroup = DEFAULT_GROUP

    def sign(self, message: object) -> BLSSignature:
        return bls_sign(self, message)


def bls_keygen(seed: int, group: MockGroup = DEFAULT_GROUP) -> BLSKeyPair:
    """Deterministically derive a key pair from a seed."""
    secret = group.scalar(sha256_int("bls-keygen", seed))
    public = group.generator.scale(secret)
    return BLSKeyPair(secret=secret, public=public, group=group)


def _hash_to_group(message: object, group: MockGroup) -> GroupElement:
    return group.hash_to_group(sha256_int("bls-msg", message))


def bls_sign(key: BLSKeyPair, message: object) -> BLSSignature:
    """Sign ``message``: ``sigma = sk * H(m)``."""
    h = _hash_to_group(message, key.group)
    return BLSSignature(point=h.scale(key.secret))


def bls_verify(
    public: GroupElement,
    message: object,
    signature: BLSSignature,
    group: MockGroup = DEFAULT_GROUP,
) -> bool:
    """Verify ``e(sigma, G) == e(H(m), pk)``."""
    h = _hash_to_group(message, group)
    return group.pairing(signature.point, group.generator) == group.pairing(h, public)


def bls_aggregate(
    signatures: Iterable[BLSSignature],
    signer_ids: Optional[Iterable[int]] = None,
    group: MockGroup = DEFAULT_GROUP,
) -> BLSSignature:
    """Aggregate same-message signatures (the n-out-of-n group signature)."""
    signatures = list(signatures)
    if not signatures:
        raise CryptoError("cannot aggregate zero signatures")
    total = GroupElement(0, group.order)
    for sig in signatures:
        total = total + sig.point
    ids = tuple(signer_ids) if signer_ids is not None else ()
    return BLSSignature(point=total, signer_ids=ids)


def bls_verify_aggregate(
    publics: Iterable[GroupElement],
    message: object,
    signature: BLSSignature,
    group: MockGroup = DEFAULT_GROUP,
) -> bool:
    """Verify an aggregate signature on a single common message."""
    publics = list(publics)
    if not publics:
        raise InvalidSignature("aggregate signature with no public keys")
    combined = GroupElement(0, group.order)
    for pk in publics:
        combined = combined + pk
    return bls_verify(combined, message, signature, group)
