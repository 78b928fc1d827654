"""Equivocation forensics: reconstruct signed evidence of misbehaviour.

BFT accountability rests on a simple observation: a correct replica never
signs two conflicting statements, so a *pair* of validly signed conflicting
messages is self-contained cryptographic proof of misbehaviour attributable
to the signing key — no honest majority or trusted observer needed.

:class:`MessageLog` taps the network (:meth:`repro.sim.network.Network.add_tap`)
and records every sent protocol message.  :func:`_statements` is the one
definition of what a message signs; two statements of one :func:`_group`
(kind, culprit, context and, for shares, scheme) with different claims
conflict:

``pre-prepare``
    The signing primary's two digests for one ``(sequence, view)``.
``view-change``
    One PBFT replica's two ``last_stable`` claims for one ``(new_view,)``
    (SBFT view changes carry threshold proofs, not a signed claim).
``share``
    One replica's threshold shares in one scheme over two digests for one
    signing context, the share's message minus its last element.

Each kind has one validity check (:func:`_verifies`).
:func:`find_equivocations` pairs, per group, the first copy of each claim
that passes it; :func:`verify_evidence` recomputes every field of a piece
from its two messages, so tampering with any field invalidates it.
"""

from __future__ import annotations

from itertools import islice
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.core.messages import PrePrepare
from repro.crypto.threshold import SignatureShare
from repro.pbft.messages import PbftViewChange
from repro.records import frozen_record

#: Bound on recorded messages so a pathological episode cannot hold the whole
#: message stream in memory; `dropped` counts what fell off the end.
MESSAGE_LOG_LIMIT = 200_000

#: Every evidence kind, in the order :func:`find_equivocations` emits them.
KINDS = ("pre-prepare", "view-change", "share")

#: Message attributes that may carry a threshold-signature share.
_SHARE_ATTRS = ("sigma_share", "tau_share", "tau_share_on_tau", "pi_share")

#: ``(kind, culprit, context, claim, signed)``, see :func:`_statements`.
Statement = Tuple[str, int, Tuple[Any, ...], Any, Any]


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
    ``message_a`` / ``message_b`` are the conflicting originals (for shares,
    the shares themselves), kept whole so the evidence stays independently
    re-verifiable.
    """

    kind: str  # one of KINDS
    culprit: int
    context: Tuple[Any, ...]
    digest_a: Any
    digest_b: Any
    message_a: Any
    message_b: Any


def _signer_id(signature: Any) -> Optional[int]:
    """Replica id from a ``Signature.signer`` name like ``"replica-3"``."""
    signer = getattr(signature, "signer", None)
    prefix, _, suffix = signer.rpartition("-") if isinstance(signer, str) else ("", "", "")
    return int(suffix) if prefix == "replica" and suffix.isdigit() else None


def _statements(message: Any) -> Iterator[Statement]:
    """Every signed statement ``message`` makes, as ``(kind, culprit,
    context, claim, signed)``.  ``signed`` is the self-contained signed
    object evidence keeps: the message itself, or a share it carries (a
    bare share is its own statement)."""
    cls = type(message)
    if cls is PrePrepare:
        culprit = _signer_id(message.primary_signature)
        if culprit is not None:
            yield "pre-prepare", culprit, (message.sequence, message.view), message.digest, message
    elif cls is PbftViewChange:
        if message.signature is not None:
            context = (message.new_view,)
            yield "view-change", message.replica_id, context, message.last_stable, message
    else:
        carried = (getattr(message, attr, None) for attr in _SHARE_ATTRS)
        for share in (message,) if cls is SignatureShare else carried:
            signs = share.message if type(share) is SignatureShare else None
            if isinstance(signs, tuple) and len(signs) >= 2:
                yield "share", share.signer_id, signs[:-1], signs[-1], share


def _group(statement: Statement) -> Tuple[Any, ...]:
    """The group of a statement, in emission order: by kind, then
    pre-prepares and view changes by context and culprit, shares by
    scheme, culprit and context."""
    kind, culprit, context, _claim, signed = statement
    if kind == "share":
        return (KINDS.index(kind), signed.scheme_name, culprit) + context
    return (KINDS.index(kind),) + context + (culprit,)


def _verifies(statement: Statement, verify_keys: Dict[int, Any], schemes: Dict[str, Any]) -> bool:
    """The kind's one validity check: the culprit's RSA signature over
    ``(kind, *context, claim)``, or the share's scheme's ``verify_share``."""
    kind, culprit, context, claim, signed = statement
    if kind == "share":
        scheme = schemes.get(signed.scheme_name)
        return scheme is not None and scheme.verify_share(signed)
    key = verify_keys.get(culprit)
    signature = signed.primary_signature if kind == "pre-prepare" else signed.signature
    return key is not None and key.verify((kind, *context, claim), signature)


def find_equivocations(
    records: List[Tuple[int, int, Any]],
    verify_keys: Dict[int, Any],
    schemes: Dict[str, Any],
) -> List[EquivocationEvidence]:
    """All reconstructable equivocation evidence in a message log.

    Only a group with two or more claims is checked.  In it each claim is
    held by its first copy, in log order, that verifies, so neither a forged
    copy nor another signer's seen first hides a valid one; the first
    verified claim (sorted) is paired with each other one.
    """
    groups: Dict[Tuple[Any, ...], Dict[Any, List[Statement]]] = {}
    for _src, _dst, message in records:
        for statement in _statements(message):
            claims = groups.setdefault(_group(statement), {})
            claims.setdefault(statement[3], []).append(statement)

    evidence: List[EquivocationEvidence] = []
    for key in sorted(groups):
        claims = groups[key]
        if len(claims) < 2:
            continue
        verified = []
        for claim in sorted(claims):
            copies = (s for s in claims[claim] if _verifies(s, verify_keys, schemes))
            verified.extend(islice(copies, 1))
        for kind, culprit, context, claim, signed in verified[1:]:
            _, _, _, first_claim, first = verified[0]
            evidence.append(
                EquivocationEvidence(kind, culprit, context, first_claim, claim, first, signed)
            )
    return evidence


def verify_evidence(
    evidence: EquivocationEvidence,
    verify_keys: Dict[int, Any],
    schemes: Optional[Dict[str, Any]] = None,
) -> bool:
    """Re-check a piece of evidence from scratch against the key material.

    Recomputes the statements of both messages: each must make a verifying
    statement of the evidence's ``(kind, culprit, context)`` with its own
    claim (``digest_a`` / ``digest_b``), the two claims different and in
    one group.  Tampering with any field makes it fail.
    """
    wanted = (evidence.kind, evidence.culprit, evidence.context)
    group_a, group_b = (
        {
            _group(statement)
            for statement in _statements(message)
            if statement[:4] == wanted + (claim,)
            and _verifies(statement, verify_keys, schemes or {})
        }
        for message, claim in (
            (evidence.message_a, evidence.digest_a),
            (evidence.message_b, evidence.digest_b),
        )
    )
    return evidence.digest_a != evidence.digest_b and bool(group_a & group_b)
