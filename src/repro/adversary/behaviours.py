"""What a compromised replica does differently from the honest protocol.

The replica classes (:mod:`repro.core.runtime`, :mod:`repro.core.replica`,
:mod:`repro.pbft.replica`) hold the honest protocol only.  Each behaviour
here is a function that, called on one replica *instance*, rebinds that
instance's own attributes — the replica classes are not slotted, so this
needs no subclass, no flag and no hook on the honest side.  Behaviours
compose: a replica handed two of them does both.

The forged messages a strategy sends itself are built here too
(:func:`stale_view_change_message`, :func:`stale_checkpoint_message`), so
:mod:`repro.adversary.strategies` only schedules and routes them.

Callers pass the function itself wherever a compromise is scripted:
``sim.schedule(at, silent, replica)`` (the strategies in
:mod:`repro.adversary.strategies`) or ``FaultPlan.byzantine([3], silent)``
(:mod:`repro.sim.faults`, which knows a behaviour only as something to call
with the replica).
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Any, Callable

from repro.core.messages import PrePrepare, Prepare, ViewChange
from repro.core.replica import SBFTReplica
from repro.core.runtime import Replica
from repro.crypto.hashing import sha256_hex
from repro.crypto.threshold import ThresholdScheme
from repro.errors import ConfigurationError
from repro.pbft.messages import PbftCheckpoint, PbftViewChange
from repro.pbft.replica import PBFTReplica


def silent(replica: Replica) -> None:
    """Receive but never send.

    The sends return before ``Network.send``, so a silent replica leaves no
    ``NetworkStats`` record and draws no network RNG — which a network
    interceptor dropping its traffic would.
    """
    replica._send = replica._broadcast = lambda *_args: None


def equivocate(replica: Replica) -> None:
    """As primary, send conflicting fresh proposals to odd/even replicas.

    Only ``_propose`` equivocates: re-proposals and new-view pre-prepares of
    the same replica go out honestly.  Both conflicting pre-prepares carry
    valid primary signatures over their own digests — the equivocation has to
    survive per-message signature checks, and the forensics layer relies on
    the pair of validly signed conflicts as cryptographic evidence.
    """
    propose = replica._propose

    def fan_out_conflict(honest: PrePrepare) -> None:
        replica.charge_cpu(replica.costs.hash_op + replica.costs.rsa_sign)
        conflicting = replica._signed_pre_prepare(honest.sequence, tuple(reversed(honest.requests)))
        for dst in replica._peers_all:
            replica._send(dst, honest if dst % 2 == 0 else conflicting)

    def propose_conflicting() -> None:
        # The pre-prepare is the one thing ``_propose`` broadcasts.
        broadcast = replica._broadcast
        replica._broadcast = fan_out_conflict
        try:
            propose()
        finally:
            replica._broadcast = broadcast

    replica._propose = propose_conflicting


class _ForgingScheme:
    """A threshold scheme whose ``sign_share`` forges; the rest is the scheme's."""

    def __init__(self, scheme: ThresholdScheme):
        self._scheme = scheme
        self.sign_share = scheme.forge_share

    def __getattr__(self, name: str) -> Any:
        return getattr(self._scheme, name)


def bad_shares(replica: SBFTReplica) -> None:
    """Send invalid σ/τ sign shares, τ commit shares and π state shares.

    The checkpoint π share and the σ share inside view-change evidence stay
    valid.  SBFT only: PBFT signs with per-replica keys, there are no
    threshold shares to corrupt.
    """
    if not isinstance(replica, SBFTReplica):
        raise ConfigurationError(
            f"{type(replica).__name__} has no threshold-signature shares to forge"
        )
    honest = replica.keys
    forging = replace(
        honest,
        sigma=_ForgingScheme(honest.sigma),
        tau=_ForgingScheme(honest.tau),
        pi=_ForgingScheme(honest.pi),
    )

    def forging_during(method: Callable) -> Callable:
        def call(*args: Any) -> None:
            replica.keys = forging
            try:
                method(*args)
            finally:
                replica.keys = honest

        return call

    replica._send_sign_share = forging_during(replica._send_sign_share)
    replica._send_sign_state = forging_during(replica._send_sign_state)
    # Handlers are looked up in the dispatch table, not on the instance.
    replica._handlers[Prepare] = forging_during(replica._on_prepare)


def stale_view_change_message(replica: Replica, new_view: int) -> Any:
    """A view-change message that pretends to know nothing: a zero stable
    point with no proof and no slot evidence.  The new-view computation must
    tolerate it (the honest quorum's evidence dominates), and a forged
    ``last_stable > 0`` without a valid proof is rejected either way."""
    if isinstance(replica, PBFTReplica):
        replica.charge_cpu(replica.costs.rsa_sign)
        return PbftViewChange(
            new_view=new_view,
            replica_id=replica.node_id,
            last_stable=0,
            prepared=(),
            signature=replica.signing_key.sign(("view-change", new_view, 0)),
        )
    return ViewChange(
        new_view=new_view,
        replica_id=replica.node_id,
        last_stable=0,
        stable_proof=None,
        slots=(),
    )


def stale_view_change(replica: Replica) -> None:
    """Join every view change with :func:`stale_view_change_message`."""
    replica.build_view_change = partial(stale_view_change_message, replica)


def stale_checkpoint_message(replica: PBFTReplica, ahead: int) -> PbftCheckpoint:
    """A validly signed PBFT checkpoint vote ``ahead`` sequences past the
    replica's execution point, over a fabricated state digest."""
    sequence = replica.last_executed + ahead
    digest = sha256_hex("stale-checkpoint-lie", replica.node_id, sequence)
    return PbftCheckpoint(
        sequence=sequence,
        state_digest=digest,
        replica_id=replica.node_id,
        signature=replica.signing_key.sign(("checkpoint", sequence, digest)),
    )
