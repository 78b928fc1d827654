"""Dual-mode view-change safe-value computation (Section V-G).

SBFT's view change must reconcile two concurrent commit modes: a slot may have
been committed in the fast path (a σ(h) certificate over ``3f + c + 1``
sign-shares) or in the linear-PBFT path (a τ(τ(h)) certificate).  Given the
``2f + 2c + 1`` view-change messages gathered by the new primary, this module
computes, for every slot in the window, whether the slot

* is already **committed** (some message carries a full σ or τ(τ) proof),
* must be **adopted** — re-proposed with the value that may have committed
  (preferring the slow-path prepare certificate over fast-path pre-prepare
  evidence on view ties, exactly as the safety proof requires), or
* is free and filled with a **no-op**.

The computation is a pure function of the view-change set, so the new primary
sends the set itself and every replica repeats the computation and arrives at
the same conclusion (Section VII, last paragraph).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.config import SBFTConfig
from repro.core.messages import ClientRequest, SlotEvidence, ViewChange
from repro.crypto.threshold import CombinedSignature, ThresholdScheme

LM_COMMIT_PROOF = "commit-proof"
LM_PREPARED = "prepared"
LM_NO_COMMIT = "no-commit"

FM_FAST_PROOF = "fast-proof"
FM_PRE_PREPARED = "pre-prepared"
FM_NO_PRE_PREPARE = "no-pre-prepare"

ACTION_COMMIT = "commit"
ACTION_ADOPT = "adopt"
ACTION_NOOP = "noop"


@dataclass(frozen=True)
class SlotDecision:
    """What the new view does with one sequence number."""

    sequence: int
    action: str
    digest: Optional[str] = None
    requests: Optional[Tuple[ClientRequest, ...]] = None
    certificate: Optional[CombinedSignature] = None
    via_fast_path: bool = False


@dataclass(frozen=True)
class NewViewPlan:
    """The outcome of processing a view-change set."""

    view: int
    last_stable: int
    decisions: Dict[int, SlotDecision]


def _collect_requests(evidences: Iterable[SlotEvidence], digest: str) -> Optional[Tuple[ClientRequest, ...]]:
    for evidence in evidences:
        requests = evidence.requests_for(digest)
        if requests is not None:
            return requests
    return None


def _certificate_covers(certificate: CombinedSignature, sequence: int, digest: str) -> bool:
    """Check that a combined signature is bound to this slot and digest.

    Protocol certificates sign tuples ending in the block digest and carrying
    the sequence number in position 1 (``("sign"|"commit", s, v, h)``); a
    certificate over some other slot or digest must not decide this one.
    """
    message = certificate.message
    if not isinstance(message, tuple) or len(message) < 4:
        return False
    return message[1] == sequence and message[-1] == digest


def compute_new_view_plan(
    view: int,
    view_changes: Iterable[ViewChange],
    config: SBFTConfig,
    sigma: Optional[ThresholdScheme] = None,
    tau: Optional[ThresholdScheme] = None,
    pi: Optional[ThresholdScheme] = None,
) -> NewViewPlan:
    """Compute per-slot decisions from a set of view-change messages.

    ``sigma``/``tau``/``pi`` are the threshold schemes used to verify the
    certificates and shares carried in the evidence; when provided, evidence
    with invalid cryptography is ignored (this is what lets the protocol
    tolerate primaries or replicas that send forged evidence — exercised by
    the view-change robustness tests).
    """
    messages = list(view_changes)
    if len(messages) < config.view_change_quorum:
        raise ValueError(
            f"need {config.view_change_quorum} view-change messages, got {len(messages)}"
        )

    last_stable = _highest_valid_stable(messages, pi)
    window_top = last_stable + config.window

    # Group evidence by slot.
    evidence_by_slot: Dict[int, List[SlotEvidence]] = {}
    for message in messages:
        for evidence in message.slots:
            if last_stable < evidence.sequence <= window_top:
                evidence_by_slot.setdefault(evidence.sequence, []).append(evidence)

    decisions: Dict[int, SlotDecision] = {}
    if not evidence_by_slot:
        return NewViewPlan(view=view, last_stable=last_stable, decisions=decisions)

    highest_slot = max(evidence_by_slot)
    for sequence in range(last_stable + 1, highest_slot + 1):
        evidences = evidence_by_slot.get(sequence, [])
        decisions[sequence] = _decide_slot(sequence, evidences, config, sigma, tau)
    return NewViewPlan(view=view, last_stable=last_stable, decisions=decisions)


def _highest_valid_stable(messages: List[ViewChange], pi: Optional[ThresholdScheme]) -> int:
    """Highest ``last_stable`` claim backed by evidence.

    A claim of 0 needs no proof (it cannot advance anything); any claim above
    the current best must carry a π execution certificate that verifies —
    a stale or forged view-change message without a valid ``stable_proof``
    cannot advance the stable point.
    """
    best = 0
    for message in messages:
        if message.last_stable <= best:
            continue
        if message.stable_proof is None:
            continue
        if pi is None or pi.verify(message.stable_proof):
            best = message.last_stable
    return best


def _decide_slot(
    sequence: int,
    evidences: List[SlotEvidence],
    config: SBFTConfig,
    sigma: Optional[ThresholdScheme],
    tau: Optional[ThresholdScheme],
) -> SlotDecision:
    # 1. A full certificate decides immediately.
    for evidence in evidences:
        fm = evidence.fm
        if fm and fm[0] == FM_FAST_PROOF:
            certificate, digest = fm[1], fm[2]
            if _certificate_covers(certificate, sequence, digest) and (
                sigma is None or sigma.verify(certificate)
            ):
                return SlotDecision(
                    sequence=sequence,
                    action=ACTION_COMMIT,
                    digest=digest,
                    requests=_collect_requests(evidences, digest),
                    certificate=certificate,
                    via_fast_path=True,
                )
        lm = evidence.lm
        if lm and lm[0] == LM_COMMIT_PROOF:
            certificate, digest = lm[1], lm[2]
            if _certificate_covers(certificate, sequence, digest) and (
                tau is None or tau.verify(certificate)
            ):
                return SlotDecision(
                    sequence=sequence,
                    action=ACTION_COMMIT,
                    digest=digest,
                    requests=_collect_requests(evidences, digest),
                    certificate=certificate,
                    via_fast_path=False,
                )

    # 2. Highest prepared certificate in the linear-PBFT path (v*).
    v_star = -1
    star_digest: Optional[str] = None
    for evidence in evidences:
        lm = evidence.lm
        if lm and lm[0] == LM_PREPARED:
            certificate, cert_view, digest = lm[1], lm[2], lm[3]
            if not _certificate_covers(certificate, sequence, digest):
                continue
            if tau is not None and not tau.verify(certificate):
                continue
            if cert_view > v_star:
                v_star = cert_view
                star_digest = digest

    # 3. Highest fast value (v̂): a digest pre-prepared by >= f + c + 1
    #    replicas at views >= v̂.
    fast_quorum = config.f + config.c + 1
    views_by_digest: Dict[str, List[int]] = {}
    for evidence in evidences:
        fm = evidence.fm
        if fm and fm[0] == FM_PRE_PREPARED:
            share, share_view, digest = fm[1], fm[2], fm[3]
            if sigma is not None and share is not None and not sigma.verify_share(share):
                continue
            views_by_digest.setdefault(digest, []).append(share_view)

    v_hat = -1
    hat_digest: Optional[str] = None
    unique = True
    for digest, views in views_by_digest.items():
        if len(views) < fast_quorum:
            continue
        views_sorted = sorted(views, reverse=True)
        candidate_view = views_sorted[fast_quorum - 1]
        if candidate_view > v_hat:
            v_hat = candidate_view
            hat_digest = digest
            unique = True
        elif candidate_view == v_hat and digest != hat_digest:
            unique = False
    if not unique:
        v_hat = -1
        hat_digest = None

    # 4. Choose between the two paths, preferring the slow-path value on ties
    #    (the safety proof depends on this preference).
    if v_star >= v_hat and v_star > -1 and star_digest is not None:
        return SlotDecision(
            sequence=sequence,
            action=ACTION_ADOPT,
            digest=star_digest,
            requests=_collect_requests(evidences, star_digest),
        )
    if v_hat > v_star and hat_digest is not None:
        return SlotDecision(
            sequence=sequence,
            action=ACTION_ADOPT,
            digest=hat_digest,
            requests=_collect_requests(evidences, hat_digest),
        )
    return SlotDecision(sequence=sequence, action=ACTION_NOOP)
