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

from dataclasses import field
from typing import Any, Dict, Iterable, List

from repro.crypto.hashing import memo_key, sha256_int
from repro.crypto.mockgroup import DEFAULT_GROUP, GroupElement, MockGroup
from repro.errors import CryptoError, InvalidSignatureShare
from repro.records import frozen_record


@frozen_record
class SignatureShare:
    """A single signer's threshold signature share on a message digest."""

    size_bytes = 33  # compressed BLS point

    scheme_name: str
    signer_id: int
    message: object
    point: GroupElement
    # Written only by ``ThresholdScheme.sign_share`` (see its docstring).
    _stamp: Any = field(init=False, compare=False, repr=False, default=None)


@frozen_record
class CombinedSignature:
    """A combined (full) threshold signature, verifiable with one public key."""

    size_bytes = 33  # compressed BLS point

    scheme_name: str
    message: object
    point: GroupElement
    signer_ids: tuple = ()
    # Written only by ``ThresholdScheme.verify`` (see its docstring).
    _verified: Any = field(init=False, compare=False, repr=False, default=None)


class ThresholdScheme:
    """Public parameters of one threshold scheme plus per-signer keys.

    Instances are created by :class:`ThresholdDealer`; each replica holds the
    same ``ThresholdScheme`` object (public data) plus its own secret share,
    mirroring a PKI + trusted-setup deployment.

    Provenance: :meth:`sign_share` stamps a share with the scheme's public
    parameters (name, threshold, public key, verification keys), and
    :meth:`verify` stashes them on a combined signature it accepts, so a
    scheme with exactly those parameters answers ``True`` at once (the
    dealer's secret shares match their verification keys).  Only a raw
    message — its own ``memo_key``: strs, ints, bools, ``None``, nothing that
    could change later — is stamped; everything else is computed.
    """

    #: Entries kept in the hash memo before it is wholesale cleared; hashing
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
        self._stamp = (name, threshold, public_key, tuple(sorted(self.verification_keys.items())))
        # ``memo_key(message) -> H(message)``, shared by every replica of the
        # deployment; ``memo_key`` keeps ``1`` and ``1.0`` apart.
        self._hash_memo: Dict[object, GroupElement] = {}

    # ------------------------------------------------------------------
    # Signing / share verification
    # ------------------------------------------------------------------
    def _hash_uncached(self, message: object) -> GroupElement:
        return self.group.hash_to_group(sha256_int("thresh", self.name, message))

    def _hash(self, message: object) -> GroupElement:
        key = memo_key(message)
        try:
            point = self._hash_memo.get(key)
        except TypeError:  # unhashable message: nothing to remember it by
            return self._hash_uncached(message)
        if point is None:
            if len(self._hash_memo) >= self.CACHE_LIMIT:
                self._hash_memo.clear()
            point = self._hash_memo[key] = self._hash_uncached(message)
        return point

    def sign_share(self, signer_id: int, message: object) -> SignatureShare:
        """Produce signer ``signer_id``'s share on ``message``."""
        try:
            secret = self._secret_shares[signer_id]
        except KeyError:
            raise CryptoError(f"signer {signer_id} has no share in scheme {self.name}") from None
        share = SignatureShare(self.name, signer_id, message, self._hash(message).scale(secret))
        if memo_key(message) is message:
            object.__setattr__(share, "_stamp", self._stamp)
        return share

    def forge_share(self, signer_id: int, message: object) -> SignatureShare:
        """Produce an *invalid* share (used by Byzantine fault injection/tests)."""
        bogus = self._hash(("forged", message)).scale(signer_id + 7)
        return SignatureShare(self.name, signer_id, message, bogus)

    def verify_share(self, share: SignatureShare) -> bool:
        """Robustness check: ``e(share, G) == e(H(m), vk_i)``."""
        if share._stamp == self._stamp:
            return True
        if share.scheme_name != self.name:
            return False
        vk = self.verification_keys.get(share.signer_id)
        if vk is None:
            return False
        h = self._hash(share.message)
        return self.group.pairing(share.point, self.group.generator) == self.group.pairing(h, vk)

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
        message = signed = None
        for share in shares:
            if not by_signer:
                message, signed = share.message, memo_key(share.message)
            elif memo_key(share.message) != signed:  # type-exact, as the encoding
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

    def verify(self, signature: CombinedSignature) -> bool:
        """Verify a combined signature under the scheme public key."""
        if signature._verified == self._stamp:
            return True
        if signature.scheme_name != self.name:
            return False
        h = self._hash(signature.message)
        valid = (
            self.group.pairing(signature.point, self.group.generator)
            == self.group.pairing(h, self.public_key)
        )
        if valid and memo_key(signature.message) is signature.message:
            object.__setattr__(signature, "_verified", self._stamp)
        return valid

    def verify_message(self, signature: CombinedSignature, message: object) -> bool:
        """Verify a combined signature over exactly ``message`` (``1.0`` is not ``1``)."""
        return memo_key(signature.message) == memo_key(message) and self.verify(signature)


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
