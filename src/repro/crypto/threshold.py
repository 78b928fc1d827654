"""Robust threshold BLS signatures (Boldyreva-style) over the mock group.

SBFT uses three threshold schemes per replica set (Section V):

* ``sigma`` with threshold ``3f + c + 1`` — the fast-path commit proof,
* ``tau``   with threshold ``2f + c + 1`` — the linear-PBFT prepare/commit proof,
* ``pi``    with threshold ``f + 1``      — the execution / state certificate.

A trusted dealer (:class:`ThresholdDealer`) Shamir-shares a secret; signer
``i`` produces a share ``sigma_i(m) = s_i * H(m)``; any ``k`` valid shares are
combined via Lagrange interpolation in the exponent into a signature that
verifies under the scheme's single public key.  Shares carry enough
information for *robust* verification (each signer has a public verification
key ``s_i * G``), so collectors can filter bad shares from malicious replicas
before combining — exactly what the paper requires of its scheme.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

from repro.crypto.hashing import memo_key, sha256_int
from repro.crypto.mockgroup import DEFAULT_GROUP, GroupElement, MockGroup
from repro.errors import CryptoError, InvalidSignatureShare


@dataclass(frozen=True, slots=True)
class SignatureShare:
    """A single signer's threshold signature share on a message digest."""

    size_bytes = 33  # compressed BLS point

    scheme_name: str
    signer_id: int
    message: object
    point: GroupElement


@dataclass(frozen=True, slots=True)
class CombinedSignature:
    """A combined (full) threshold signature, verifiable with one public key."""

    size_bytes = 33  # compressed BLS point

    scheme_name: str
    message: object
    point: GroupElement
    signer_ids: tuple = ()


class ThresholdScheme:
    """Public parameters of one threshold scheme plus per-signer keys.

    Instances are created by :class:`ThresholdDealer`; each replica holds the
    same ``ThresholdScheme`` object (public data) plus its own secret share,
    mirroring a PKI + trusted-setup deployment.
    """

    #: Entries kept per memo table before it is wholesale cleared; verification
    #: is pure, so clearing only costs recomputation, never correctness.
    CACHE_LIMIT = 1 << 16

    def __init__(
        self,
        name: str,
        threshold: int,
        num_signers: int,
        public_key: GroupElement,
        verification_keys: Dict[int, GroupElement],
        secret_shares: Dict[int, int],
        group: MockGroup = DEFAULT_GROUP,
    ):
        if threshold < 1 or threshold > num_signers:
            raise CryptoError(
                f"threshold {threshold} out of range for {num_signers} signers"
            )
        self.name = name
        self.threshold = threshold
        self.num_signers = num_signers
        self.public_key = public_key
        self.verification_keys = dict(verification_keys)
        self._secret_shares = dict(secret_shares)
        self.group = group
        # Memo tables.  A scheme instance is shared by every replica of a
        # deployment (public data), so hashing a slot's sign-message once and
        # verifying a broadcast combined signature once serves the whole
        # cluster.  All memoized functions are pure, so results are identical
        # with or without the cache.  Keys go through
        # :func:`repro.crypto.hashing.memo_key` so that values Python
        # considers equal but the canonical encoding distinguishes (``1`` vs
        # ``1.0``) never share a cache entry.
        self._hash_memo: Dict[object, GroupElement] = {}
        self._share_memo: Dict[object, bool] = {}
        self._combined_memo: Dict[object, bool] = {}

    # ------------------------------------------------------------------
    # Signing / share verification
    # ------------------------------------------------------------------
    def _memo(self, table: Dict[object, object], key: object, compute, argument):
        """``compute(argument)``, remembered in ``table`` under ``key``."""
        try:
            cached = table.get(key)
        except TypeError:  # unhashable message: fall back to direct computation
            return compute(argument)
        if cached is None:
            cached = compute(argument)
            if len(table) >= self.CACHE_LIMIT:
                table.clear()
            table[key] = cached
        return cached

    def _hash_uncached(self, message: object) -> GroupElement:
        return self.group.hash_to_group(sha256_int("thresh", self.name, message))

    def _hash(self, message: object) -> GroupElement:
        return self._memo(self._hash_memo, memo_key(message), self._hash_uncached, message)

    def sign_share(self, signer_id: int, message: object) -> SignatureShare:
        """Produce signer ``signer_id``'s share on ``message``."""
        try:
            secret = self._secret_shares[signer_id]
        except KeyError:
            raise CryptoError(f"signer {signer_id} has no share in scheme {self.name}") from None
        point = self._hash(message).scale(secret)
        return SignatureShare(self.name, signer_id, message, point)

    def forge_share(self, signer_id: int, message: object) -> SignatureShare:
        """Produce an *invalid* share (used by Byzantine fault injection/tests)."""
        bogus = self._hash(("forged", message)).scale(signer_id + 7)
        return SignatureShare(self.name, signer_id, message, bogus)

    def _verify_share_uncached(self, share: SignatureShare) -> bool:
        if share.scheme_name != self.name:
            return False
        vk = self.verification_keys.get(share.signer_id)
        if vk is None:
            return False
        h = self._hash(share.message)
        return self.group.pairing(share.point, self.group.generator) == self.group.pairing(h, vk)

    def verify_share(self, share: SignatureShare) -> bool:
        """Robustness check: ``e(share, G) == e(H(m), vk_i)``."""
        key = (share.scheme_name, share.signer_id, memo_key(share.message), share.point)
        return self._memo(self._share_memo, key, self._verify_share_uncached, share)

    # ------------------------------------------------------------------
    # Combination / verification
    # ------------------------------------------------------------------
    def combine(self, shares: Iterable[SignatureShare], verify: bool = True) -> CombinedSignature:
        """Combine >= threshold valid shares into a full signature.

        Raises :class:`InvalidSignatureShare` if a share fails robust
        verification (when ``verify`` is true) and :class:`CryptoError` when
        fewer than ``threshold`` distinct valid shares remain.
        """
        by_signer: Dict[int, SignatureShare] = {}
        message = None
        for share in shares:
            if message is None:
                message = share.message
            elif share.message != message:
                raise CryptoError("cannot combine shares over different messages")
            if verify and not self.verify_share(share):
                raise InvalidSignatureShare(
                    f"share from signer {share.signer_id} failed verification"
                )
            by_signer.setdefault(share.signer_id, share)
        if len(by_signer) < self.threshold:
            raise CryptoError(
                f"scheme {self.name}: have {len(by_signer)} shares, need {self.threshold}"
            )
        chosen = tuple(sorted(by_signer)[: self.threshold])
        # Not memoized: which ``threshold`` replicas answer first differs from
        # slot to slot, and the closed form costs less than a table would save.
        coeffs = self.group.lagrange_coefficients(
            [i + 1 for i in chosen]  # Shamir x-coordinates are 1-based
        )
        # Interpolate in the exponent with plain modular arithmetic: one
        # GroupElement is allocated for the result instead of two per share.
        order = self.group.order
        total = 0
        for signer_id, coeff in zip(chosen, coeffs):
            point = by_signer[signer_id].point
            if point.order != order:
                raise CryptoError("group elements from different groups")
            total += point.value * coeff
        combined = GroupElement(total % order, order)
        return CombinedSignature(self.name, message, combined, chosen)

    def combine_filtering(self, shares: Iterable[SignatureShare]) -> CombinedSignature:
        """Combine after silently dropping invalid shares (robust combine)."""
        valid = [s for s in shares if self.verify_share(s)]
        return self.combine(valid, verify=False)

    def _verify_uncached(self, signature: CombinedSignature) -> bool:
        if signature.scheme_name != self.name:
            return False
        h = self._hash(signature.message)
        return (
            self.group.pairing(signature.point, self.group.generator)
            == self.group.pairing(h, self.public_key)
        )

    def verify(self, signature: CombinedSignature) -> bool:
        """Verify a combined signature under the scheme public key."""
        key = (signature.scheme_name, memo_key(signature.message), signature.point)
        return self._memo(self._combined_memo, key, self._verify_uncached, signature)

    def verify_message(self, signature: CombinedSignature, message: object) -> bool:
        """Verify a combined signature and that it covers ``message``."""
        return signature.message == message and self.verify(signature)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ThresholdScheme(name={self.name!r}, k={self.threshold}, n={self.num_signers})"
        )


class ThresholdDealer:
    """Trusted dealer producing the three SBFT threshold schemes.

    The paper assumes a PKI / trusted setup between clients and replicas
    (Section III); the dealer plays that role for the simulation.
    """

    def __init__(self, num_signers: int, seed: int = 0, group: MockGroup = DEFAULT_GROUP):
        if num_signers < 1:
            raise CryptoError("need at least one signer")
        self.num_signers = num_signers
        self.seed = seed
        self.group = group

    def _polynomial(self, name: str, degree: int) -> List[int]:
        return [
            self.group.scalar(sha256_int("dealer-poly", self.seed, name, j))
            for j in range(degree + 1)
        ]

    def _eval(self, coeffs: List[int], x: int) -> int:
        acc = 0
        for coeff in reversed(coeffs):
            acc = (acc * x + coeff) % self.group.order
        return acc

    def deal(self, name: str, threshold: int) -> ThresholdScheme:
        """Create one scheme with the given reconstruction threshold."""
        if threshold < 1 or threshold > self.num_signers:
            raise CryptoError(
                f"threshold {threshold} out of range for {self.num_signers} signers"
            )
        coeffs = self._polynomial(name, threshold - 1)
        secret = coeffs[0]
        secret_shares = {i: self._eval(coeffs, i + 1) for i in range(self.num_signers)}
        verification_keys = {
            i: self.group.generator.scale(share) for i, share in secret_shares.items()
        }
        public_key = self.group.generator.scale(secret)
        return ThresholdScheme(
            name=name,
            threshold=threshold,
            num_signers=self.num_signers,
            public_key=public_key,
            verification_keys=verification_keys,
            secret_shares=secret_shares,
            group=self.group,
        )
