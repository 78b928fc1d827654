"""Plain public-key signatures for clients and replicas.

Following Clement et al. [31], SBFT signs client requests and server messages
with public-key signatures (the paper's implementation uses RSA-2048).  For
the simulation we use a keyed-hash construction that is *functionally* a
signature scheme with a verification oracle — unforgeable only against the
honest processes in the simulation, which never try to forge — and charge
RSA-like costs through :mod:`repro.crypto.costs`.

Signature provenance.  One broadcast hands the *same* frozen
:class:`Signature` object to every recipient, so :meth:`SigningKey.sign`
records on the signature what it signed and :meth:`VerifyKey.verify` accepts
without hashing when asked about exactly that key and that message.  The
record is type-tagged (:func:`repro.crypto.hashing.memo_key`: ``1`` and
``1.0`` are different records, exactly as in the canonical encoding), is not
an ``__init__`` field (so it never survives direct construction or
``dataclasses.replace``), and lives and dies with the signature.  Anything
without a matching record is recomputed and compared as before, so the fast
path can only ever save a recomputation, never change a verdict — under the
same trust model as above: honest processes do not write the record
themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from hashlib import sha256
from typing import Any, Tuple

from repro.crypto.hashing import _canonical_bytes, memo_key, provenance_key, sha256_hex
from repro.errors import CryptoError
from repro.records import frozen_record


def encode(message: object) -> Tuple[bytes, Any]:
    """``(body, record)``: ``message`` canonically encoded as one item, and
    the provenance record a signature over it carries.  A caller signing one
    message under many keys (a block's replies) encodes it once."""
    return _canonical_bytes((message,)), provenance_key(message)


@frozen_record
class Signature:
    """A signature over a message digest by one key pair."""

    size_bytes = 256  # RSA-2048 signature size

    signer: str
    digest: str
    # Provenance stash written only by ``SigningKey.sign``: the ``key_id`` and
    # ``memo_key(message)`` of the signing call that made this object, or
    # ``None`` (see the module docstring).  Two slots, not a tuple: a long
    # run keeps tens of thousands of signatures alive.
    _signed_by: Any = field(init=False, compare=False, repr=False, default=None)
    _signed: Any = field(init=False, compare=False, repr=False, default=None)


@dataclass(frozen=True)
class _Key:
    """What both halves of a key pair hold.  A digest is
    ``sha256_hex("pk-sign", key_id, message)``, hashed in one pass as
    ``_prefix`` (built once) + the message's :func:`encode` body."""

    signer: str
    key_id: str
    _prefix: bytes = field(init=False, compare=False, repr=False, default=b"")

    def __post_init__(self) -> None:
        object.__setattr__(self, "_prefix", _canonical_bytes(("pk-sign", self.key_id)))


@dataclass(frozen=True)
class VerifyKey(_Key):
    """Public half of a key pair."""

    def verify(self, message: object, signature: Signature) -> bool:
        if signature.signer != self.signer:
            return False
        if signature._signed_by == self.key_id and signature._signed == memo_key(message):
            return True
        return signature.digest == sha256(self._prefix + _canonical_bytes((message,))).hexdigest()


@dataclass(frozen=True)
class SigningKey(_Key):
    """Private half of a key pair."""

    def sign(self, message: object, *, provenance: bool = True, encoded: Any = None) -> Signature:
        """Sign ``message``; ``encoded`` is its :func:`encode` if the caller
        holds it.  ``provenance=False`` neither computes nor writes the record
        for a signature nobody will verify (it would keep the signed message
        alive for as long as the signature is): only the body is encoded."""
        if encoded is None:
            encoded = encode(message) if provenance else (_canonical_bytes((message,)), None)
        body, record = encoded
        signature = Signature(self.signer, sha256(self._prefix + body).hexdigest())
        if provenance:
            object.__setattr__(signature, "_signed_by", self.key_id)
            object.__setattr__(signature, "_signed", record)
        return signature

    @property
    def verify_key(self) -> VerifyKey:
        return VerifyKey(signer=self.signer, key_id=self.key_id)


def generate_keypair(signer: str, seed: int = 0) -> SigningKey:
    """Deterministically derive a signing key for ``signer``."""
    if not signer:
        raise CryptoError("signer name must be non-empty")
    return SigningKey(signer=signer, key_id=sha256_hex("keygen", signer, seed))
