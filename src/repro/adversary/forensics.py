"""Equivocation forensics: reconstruct signed evidence of misbehaviour.

BFT accountability rests on a simple observation: a correct replica never
signs two conflicting statements, so a *pair* of validly signed conflicting
messages is self-contained cryptographic proof of misbehaviour attributable
to the signing key — no honest majority or trusted observer needed.

:class:`MessageLog` taps the network (:meth:`repro.sim.network.Network.add_tap`)
and records every sent protocol message; :func:`find_equivocations` scans a
log for three conflict shapes and emits :class:`EquivocationEvidence` only
when *both* halves check out against the signature / threshold layer:

``pre-prepare``
    The same primary signed two different block digests for one
    ``(sequence, view)`` — the classic equivocating-primary attack.
``view-change``
    The same PBFT replica signed two different ``last_stable`` claims for
    one new view (SBFT view-changes carry threshold proofs, not a plain
    signature over the claim, so this shape is PBFT-specific).
``share``
    The same replica produced valid threshold-signature shares over two
    different digests for one signing context (e.g. ``("sign", sequence,
    view, ·)``) in the same scheme.

Anyone holding the public keys can re-check a piece of evidence with
:func:`verify_evidence`; tampering with either half invalidates it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.messages import PrePrepare
from repro.crypto.threshold import SignatureShare
from repro.pbft.messages import PbftViewChange
from repro.records import frozen_record

#: Bound on recorded messages so a pathological episode cannot hold the whole
#: message stream in memory; `dropped` counts what fell off the end.
MESSAGE_LOG_LIMIT = 200_000


class MessageLog:
    """A network tap that records ``(src, dst, message)`` in send order."""

    def __init__(self, limit: int = MESSAGE_LOG_LIMIT):
        self.records: List[Tuple[int, int, Any]] = []
        self.limit = limit
        self.dropped = 0

    def tap(self, src: int, dst: int, message: Any) -> None:
        if len(self.records) < self.limit:
            self.records.append((src, dst, message))
        else:
            self.dropped += 1


@frozen_record
class EquivocationEvidence:
    """Two validly signed conflicting messages attributable to one replica.

    ``context`` identifies the slot the conflict is about: ``(sequence,
    view)`` for pre-prepares, ``(new_view,)`` for view changes and the
    signing-context prefix (message tuple minus the digest) for shares.
    ``message_a`` / ``message_b`` are the conflicting originals, kept whole
    so the evidence stays independently re-verifiable.
    """

    kind: str  # "pre-prepare" | "view-change" | "share"
    culprit: int
    context: Tuple[Any, ...]
    digest_a: Any
    digest_b: Any
    message_a: Any
    message_b: Any


def _signer_id(signature: Any) -> Optional[int]:
    """Replica id from a ``Signature.signer`` name like ``"replica-3"``."""
    signer = getattr(signature, "signer", None)
    if not isinstance(signer, str):
        return None
    prefix, _, suffix = signer.rpartition("-")
    if prefix != "replica" or not suffix.isdigit():
        return None
    return int(suffix)


def find_pre_prepare_equivocations(
    records: List[Tuple[int, int, Any]], verify_keys: Dict[int, Any]
) -> List[EquivocationEvidence]:
    """Conflicting validly signed pre-prepares per ``(sequence, view)`` and signer.

    Only a copy whose signature verifies is filed, the first per digest, so
    neither another replica's self-signed pre-prepare for the slot nor a
    tampered copy under the signer's name hides the signer's own two.
    """
    by_signer: Dict[Tuple[int, int, int], Dict[str, Any]] = {}
    for _src, _dst, message in records:
        if type(message) is not PrePrepare:
            continue
        signer = _signer_id(message.primary_signature)
        key = verify_keys.get(signer)
        if key is None:
            continue
        signed = by_signer.setdefault((message.sequence, message.view, signer), {})
        if message.digest not in signed and key.verify(
            ("pre-prepare", message.sequence, message.view, message.digest),
            message.primary_signature,
        ):
            signed[message.digest] = message

    evidence: List[EquivocationEvidence] = []
    for sequence, view, culprit in sorted(by_signer):
        signed = by_signer[(sequence, view, culprit)]
        first, *others = sorted(signed)
        for digest in others:
            evidence.append(
                EquivocationEvidence(
                    kind="pre-prepare",
                    culprit=culprit,
                    context=(sequence, view),
                    digest_a=first,
                    digest_b=digest,
                    message_a=signed[first],
                    message_b=signed[digest],
                )
            )
    return evidence


def find_view_change_equivocations(
    records: List[Tuple[int, int, Any]], verify_keys: Dict[int, Any]
) -> List[EquivocationEvidence]:
    """Conflicting validly signed PBFT ``last_stable`` claims per new view."""
    by_claim: Dict[Tuple[int, int], Dict[int, Any]] = {}
    for _src, _dst, message in records:
        if type(message) is not PbftViewChange or message.signature is None:
            continue
        claims = by_claim.setdefault((message.new_view, message.replica_id), {})
        claims.setdefault(message.last_stable, message)

    evidence: List[EquivocationEvidence] = []
    for new_view, replica_id in sorted(by_claim):
        claims = by_claim[(new_view, replica_id)]
        if len(claims) < 2:
            continue
        key = verify_keys.get(replica_id)
        if key is None:
            continue
        valid = [
            (last_stable, claims[last_stable])
            for last_stable in sorted(claims)
            if key.verify(
                ("view-change", new_view, last_stable), claims[last_stable].signature
            )
        ]
        for index in range(1, len(valid)):
            stable_a, message_a = valid[0]
            stable_b, message_b = valid[index]
            evidence.append(
                EquivocationEvidence(
                    kind="view-change",
                    culprit=replica_id,
                    context=(new_view,),
                    digest_a=stable_a,
                    digest_b=stable_b,
                    message_a=message_a,
                    message_b=message_b,
                )
            )
    return evidence


#: Message attributes that may carry a threshold-signature share.
_SHARE_ATTRS = ("sigma_share", "tau_share", "pi_share")


def _iter_shares(message: Any):
    for attr in _SHARE_ATTRS:
        share = getattr(message, attr, None)
        if type(share) is SignatureShare:
            yield share


def find_share_equivocations(
    records: List[Tuple[int, int, Any]], schemes: Dict[str, Any]
) -> List[EquivocationEvidence]:
    """Valid shares from one signer over conflicting digests in one context.

    A share signs a tuple whose last element is the digest (``("sign",
    sequence, view, digest)`` / ``("state", sequence, digest)``); the signing
    context is everything before it.
    """
    by_context: Dict[Tuple[Any, ...], Dict[Any, Any]] = {}
    for _src, _dst, message in records:
        for share in _iter_shares(message):
            if not (isinstance(share.message, tuple) and len(share.message) >= 2):
                continue
            context = (share.scheme_name, share.signer_id) + tuple(share.message[:-1])
            by_context.setdefault(context, {}).setdefault(share.message[-1], share)

    evidence: List[EquivocationEvidence] = []
    for context in sorted(by_context):
        shares = by_context[context]
        if len(shares) < 2:
            continue
        scheme = schemes.get(context[0])
        if scheme is None:
            continue
        valid = [
            (digest, shares[digest])
            for digest in sorted(shares)
            if scheme.verify_share(shares[digest])
        ]
        for index in range(1, len(valid)):
            digest_a, share_a = valid[0]
            digest_b, share_b = valid[index]
            evidence.append(
                EquivocationEvidence(
                    kind="share",
                    culprit=share_a.signer_id,
                    context=tuple(context[2:]),
                    digest_a=digest_a,
                    digest_b=digest_b,
                    message_a=share_a,
                    message_b=share_b,
                )
            )
    return evidence


def find_equivocations(
    records: List[Tuple[int, int, Any]],
    verify_keys: Dict[int, Any],
    schemes: Dict[str, Any],
) -> List[EquivocationEvidence]:
    """All reconstructable equivocation evidence in a message log."""
    return (
        find_pre_prepare_equivocations(records, verify_keys)
        + find_view_change_equivocations(records, verify_keys)
        + find_share_equivocations(records, schemes)
    )


def verify_evidence(
    evidence: EquivocationEvidence,
    verify_keys: Dict[int, Any],
    schemes: Optional[Dict[str, Any]] = None,
) -> bool:
    """Re-check a piece of evidence from scratch against the key material.

    Returns ``True`` only if both halves are validly signed by the culprit
    *and* genuinely conflict; any tampering (swapped digest, altered claim,
    wrong culprit) makes it fail.
    """
    a, b = evidence.message_a, evidence.message_b
    if evidence.kind == "pre-prepare":
        if type(a) is not PrePrepare or type(b) is not PrePrepare:
            return False
        if (a.sequence, a.view) != (b.sequence, b.view):
            return False
        if (a.sequence, a.view) != evidence.context or a.digest == b.digest:
            return False
        key = verify_keys.get(evidence.culprit)
        if key is None:
            return False
        return (
            _signer_id(a.primary_signature) == evidence.culprit
            and _signer_id(b.primary_signature) == evidence.culprit
            and key.verify(("pre-prepare", a.sequence, a.view, a.digest), a.primary_signature)
            and key.verify(("pre-prepare", b.sequence, b.view, b.digest), b.primary_signature)
        )
    if evidence.kind == "view-change":
        if type(a) is not PbftViewChange or type(b) is not PbftViewChange:
            return False
        if a.new_view != b.new_view or (a.new_view,) != evidence.context:
            return False
        if a.replica_id != evidence.culprit or b.replica_id != evidence.culprit:
            return False
        if a.last_stable == b.last_stable:
            return False
        key = verify_keys.get(evidence.culprit)
        if key is None:
            return False
        return key.verify(("view-change", a.new_view, a.last_stable), a.signature) and key.verify(
            ("view-change", b.new_view, b.last_stable), b.signature
        )
    if evidence.kind == "share":
        if type(a) is not SignatureShare or type(b) is not SignatureShare:
            return False
        if a.scheme_name != b.scheme_name or a.signer_id != b.signer_id:
            return False
        if a.signer_id != evidence.culprit:
            return False
        if not (isinstance(a.message, tuple) and isinstance(b.message, tuple)):
            return False
        if a.message[:-1] != b.message[:-1] or a.message[-1] == b.message[-1]:
            return False
        scheme = (schemes or {}).get(a.scheme_name)
        if scheme is None:
            return False
        return scheme.verify_share(a) and scheme.verify_share(b)
    return False
