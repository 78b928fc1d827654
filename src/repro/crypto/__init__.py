"""Cryptographic substrate.

The paper uses SHA256, RSA-2048 client signatures and threshold BLS signatures
over the BN-P254 pairing curve (Section III, VIII).  Real pairings in pure
Python are orders of magnitude too slow for 200-replica simulations, so this
package provides a **structurally faithful mock**: the group used by
:mod:`repro.crypto.threshold` is additive Z_q (``MockGroup``), where the
"pairing" is field multiplication.  Every algorithm above the group — hashing
to the group, Shamir dealing, robust share verification, Lagrange
interpolation in the exponent — is the real algorithm, running on the same
code path a real BLS library would.

The *cost* of real cryptography is charged to the simulated CPU via
:mod:`repro.crypto.costs`, so the performance evaluation reflects realistic
sign/verify/combine times even though the Python-level math is cheap.
"""

from repro.crypto.hashing import sha256_hex, sha256_int, block_digest
from repro.crypto.mockgroup import MockGroup, GroupElement, DEFAULT_GROUP
from repro.crypto.threshold import (
    ThresholdScheme,
    SignatureShare,
    CombinedSignature,
    ThresholdDealer,
)
from repro.crypto.merkle import MerkleTree, MerkleProof
from repro.crypto.signatures import SigningKey, VerifyKey, generate_keypair
from repro.crypto.costs import CryptoCosts, DEFAULT_COSTS

__all__ = [
    "sha256_hex",
    "sha256_int",
    "block_digest",
    "MockGroup",
    "GroupElement",
    "DEFAULT_GROUP",
    "ThresholdScheme",
    "SignatureShare",
    "CombinedSignature",
    "ThresholdDealer",
    "MerkleTree",
    "MerkleProof",
    "SigningKey",
    "VerifyKey",
    "generate_keypair",
    "CryptoCosts",
    "DEFAULT_COSTS",
]
