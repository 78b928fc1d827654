"""Pluggable byzantine strategies, and the planted weakness they hunt.

Every strategy is an :class:`Adversary` subclass describing *one* scripted
attack: which replicas it compromises, what it does with the network
interceptor (:meth:`repro.sim.network.Network.set_interceptor`) and which
replica behaviours (:mod:`repro.adversary.behaviours`) it installs on them.
Strategies are pure functions of their parameters and the episode seed — they
draw no randomness of their own, so a fixed-seed run is byte-identical
across runs and across ``--jobs`` workers.

The registry at the bottom is one literal: ``STRATEGIES`` keys every class by
its own ``KIND`` and ``STRATEGY_KINDS`` is read off it, so a strategy in the
list cannot fall out of the search space.

Parameter spaces are small ordered candidate tuples with the *first* entry as
the benign default; the delta-debugging minimizer
(:mod:`repro.adversary.minimize`) shrinks violating parameter sets toward
those defaults, so "non-default parameter count" is the size measure of a
minimized repro.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.adversary.behaviours import (
    bad_shares,
    equivocate,
    silent,
    stale_view_change,
    stale_view_change_message,
)
from repro.core.config import SBFTConfig
from repro.crypto.hashing import sha256_hex
from repro.errors import ConfigurationError
from repro.pbft.messages import PbftCheckpoint


class Adversary:
    """Base class for scripted byzantine strategies.

    Subclasses set :attr:`KIND` (the registry key), :attr:`PROTOCOLS` (the
    ``ProtocolSpec.kind`` values the strategy applies to) and
    :attr:`PARAM_SPACE` (ordered candidate tuples per parameter, benign
    default first), and implement :meth:`install`, which receives the fully
    built :class:`~repro.protocols.cluster.Cluster` and arms the attack: it
    adds the replicas it takes over to ``cluster.compromised`` (the agreement
    monitor does not judge them), installs a network interceptor or
    schedules activations.  ``install`` runs before the first simulator
    event.
    """

    KIND = "abstract"
    PROTOCOLS: Tuple[str, ...] = ("sbft", "pbft")
    PARAM_SPACE: Dict[str, Tuple[Any, ...]] = {}

    def __init__(self, params: Optional[Dict[str, Any]] = None):
        merged = {name: space[0] for name, space in sorted(self.PARAM_SPACE.items())}
        for name, value in sorted((params or {}).items()):
            if name not in merged:
                raise ConfigurationError(
                    f"strategy {self.KIND!r} has no parameter {name!r} "
                    f"(known: {', '.join(sorted(self.PARAM_SPACE)) or 'none'})"
                )
            merged[name] = value
        self.params = merged

    def install(self, cluster) -> None:
        raise NotImplementedError


def _activate_at(cluster, replica_id: int, behaviour: Callable, at_time: float) -> None:
    """Compromise ``replica_id`` and install ``behaviour`` on it at ``at_time``."""
    cluster.compromised.add(replica_id)
    cluster.sim.schedule(max(0.0, at_time), behaviour, cluster.replicas[replica_id])


class EquivocatingPrimary(Adversary):
    """The view-0 primary proposes conflicting blocks to odd/even replicas.

    Against a sound quorum this costs liveness only until the view change
    demotes the primary; with the planted weak quorum (``WeakQuorumConfig``) the
    parity halves can commit different blocks at the same sequence — the
    safety violation the search harness must find.
    """

    KIND = "equivocating-primary"
    PARAM_SPACE = {"activate_at": (0.0, 0.01, 0.05)}

    def install(self, cluster) -> None:
        _activate_at(cluster, 0, equivocate, self.params["activate_at"])


class DelayToCollectors(Adversary):
    """Bounded extra delay on replica traffic toward a victim set.

    Models the asynchronous adversary of the system model (Section II):
    messages toward the last ``victims`` replicas — backup collectors, never
    the view-0 primary — are delayed by ``extra_delay`` seconds inside the
    ``[start, start + duration)`` window.  The delay is finite, so safety
    *and* liveness must survive.
    """

    KIND = "delay-commit-collectors"
    PARAM_SPACE = {
        "extra_delay": (0.02, 0.1, 0.5),
        "victims": (1, 2),
        "start": (0.0, 0.5),
        "duration": (1.0, 4.0),
    }

    def install(self, cluster) -> None:
        n = cluster.config.n
        victims = frozenset(range(n - int(self.params["victims"]), n))
        extra = float(self.params["extra_delay"])
        start = float(self.params["start"])
        end = start + float(self.params["duration"])
        sim = cluster.sim

        def intercept(src: int, dst: int, message: Any):
            if src < n and dst in victims and start <= sim.now < end:
                return message, extra
            return message, 0.0

        cluster.network.set_interceptor(intercept)


class SilenceToCollectors(Adversary):
    """Drop all replica traffic toward at most ``f`` victims for a window.

    The victims (the last ``victims`` replicas) hear nothing while the window
    is open; the remaining ``n - f`` replicas still form a quorum, and once
    the window closes retransmissions and checkpoint catch-up pull the
    victims back — so correct-client liveness must hold.
    """

    KIND = "silence-commit-collectors"
    PARAM_SPACE = {
        "victims": (1,),
        "start": (0.0, 0.5),
        "duration": (0.5, 2.0),
    }

    def install(self, cluster) -> None:
        n = cluster.config.n
        victims = frozenset(range(n - int(self.params["victims"]), n))
        start = float(self.params["start"])
        end = start + float(self.params["duration"])
        sim = cluster.sim

        def intercept(src: int, dst: int, message: Any):
            if src < n and dst in victims and start <= sim.now < end:
                return None
            return message, 0.0

        cluster.network.set_interceptor(intercept)


class ViewChangeSpam(Adversary):
    """A compromised backup floods view-change messages for future views.

    The spammer broadcasts ``count`` view-change messages for ``view + jump``
    every ``period`` seconds, starting at ``start``.  A single replica is
    below the ``f + 1`` join threshold, so honest replicas must absorb the
    spam without leaving the current view.  With ``equivocate_claims`` the
    spammer additionally emits a conflicting stale claim for each view — a
    pair of validly signed contradictions the forensics layer can attribute.
    """

    KIND = "viewchange-spam"
    PARAM_SPACE = {
        "period": (0.01, 0.1),
        "jump": (1, 3),
        "count": (4, 12),
        "start": (0.0, 0.2),
        "equivocate_claims": (False, True),
    }

    def install(self, cluster) -> None:
        n = cluster.config.n
        spammer_id = n - 1
        cluster.compromised.add(spammer_id)
        replica = cluster.replicas[spammer_id]
        network = cluster.network
        jump = int(self.params["jump"])
        conflicting_claims = bool(self.params["equivocate_claims"])
        peers = tuple(range(n))

        def spam_once() -> None:
            if replica.crashed:
                return
            new_view = replica.view + jump
            message = replica.build_view_change(new_view)
            network.broadcast_bulk(spammer_id, message, peers)
            if conflicting_claims:
                # Same view, contradictory last_stable claim, both validly
                # signed by the same key.
                lie = stale_view_change_message(replica, new_view)
                network.broadcast_bulk(spammer_id, lie, peers)

        start = float(self.params["start"])
        period = float(self.params["period"])
        for index in range(int(self.params["count"])):
            cluster.sim.schedule(start + index * period, spam_once)


class StaleCheckpointLies(Adversary):
    """A compromised PBFT replica broadcasts checkpoint claims it never earned.

    Each lie is a *validly signed* ``PbftCheckpoint`` for a sequence
    ``claim_ahead`` past the liar's execution point with a fabricated state
    digest.  One vote is below the checkpoint quorum, so ``last_stable`` must
    not move; the claimed sequence can, however, sit past honest replicas'
    ``state_transfer_lag`` and bait spurious snapshot fetches — the throttle
    in the state-transfer path is what keeps that cheap.
    """

    KIND = "stale-checkpoint"
    PROTOCOLS = ("pbft",)
    PARAM_SPACE = {
        "claim_ahead": (16, 64),
        "start": (0.0, 0.5),
        "repeat": (1, 3),
    }

    def install(self, cluster) -> None:
        n = cluster.config.n
        liar_id = n - 1
        cluster.compromised.add(liar_id)
        replica = cluster.replicas[liar_id]
        network = cluster.network
        ahead = int(self.params["claim_ahead"])
        peers = tuple(range(n))

        def lie_once() -> None:
            if replica.crashed:
                return
            sequence = replica.last_executed + ahead
            digest = sha256_hex("stale-checkpoint-lie", liar_id, sequence)
            signature = replica.signing_key.sign(("checkpoint", sequence, digest))
            message = PbftCheckpoint(
                sequence=sequence,
                state_digest=digest,
                replica_id=liar_id,
                signature=signature,
            )
            network.broadcast_bulk(liar_id, message, peers)

        start = float(self.params["start"])
        for index in range(int(self.params["repeat"])):
            cluster.sim.schedule(start + index * 0.01, lie_once)


class SilentReplica(Adversary):
    """One replica goes byzantine-silent (receives but never sends)."""

    KIND = "silent-replica"
    PARAM_SPACE = {"replica": (1, 3), "activate_at": (0.0, 1.0)}

    def install(self, cluster) -> None:
        _activate_at(cluster, int(self.params["replica"]), silent, self.params["activate_at"])


class BadShares(Adversary):
    """An SBFT replica sends forged threshold-signature shares.

    The combiner's share verification must reject every forged share, so the
    only observable effect is the fast path falling back when the forger was
    needed for sigma.
    """

    KIND = "bad-shares"
    PROTOCOLS = ("sbft",)
    PARAM_SPACE = {"replica": (1, 3), "activate_at": (0.0, 0.5)}

    def install(self, cluster) -> None:
        _activate_at(cluster, int(self.params["replica"]), bad_shares, self.params["activate_at"])


class StaleViewChange(Adversary):
    """A backup joins every view change with a zeroed, evidence-free claim."""

    KIND = "stale-viewchange"
    PARAM_SPACE = {"replica": (3, 1), "activate_at": (0.0, 0.5)}

    def install(self, cluster) -> None:
        _activate_at(
            cluster, int(self.params["replica"]), stale_view_change, self.params["activate_at"]
        )


#: The planted weakness: a two-vote prepare/commit quorum at f=1 lets an
#: equivocating primary commit both parity halves.
PLANTED_WEAK_QUORUM = 2


@dataclass(frozen=True)
class WeakQuorumConfig(SBFTConfig):
    """The honest configuration with the planted weakness: the linear-PBFT
    prepare/commit threshold (``tau_threshold``, which ``TrustedSetup`` deals
    τ from) and the PBFT replica quorum (``pbft_quorum``) are both
    :data:`PLANTED_WEAK_QUORUM`, so the search has a real safety violation to
    find.  Only points whose adversary plants the weak quorum build one."""

    @property
    def tau_threshold(self) -> int:
        return PLANTED_WEAK_QUORUM

    @property
    def pbft_quorum(self) -> int:
        return PLANTED_WEAK_QUORUM


#: Every strategy, keyed by its ``KIND``, in catalog order (docs/adversary.md):
#: the one list the search harness and the corpus loader resolve kinds in.
STRATEGIES: Dict[str, type] = {
    cls.KIND: cls
    for cls in (
        EquivocatingPrimary,
        DelayToCollectors,
        SilenceToCollectors,
        ViewChangeSpam,
        StaleCheckpointLies,
        SilentReplica,
        BadShares,
        StaleViewChange,
    )
}
STRATEGY_KINDS = tuple(STRATEGIES)


def get_strategy(kind: str) -> type:
    """Resolve a strategy class by kind, with a helpful error."""
    cls = STRATEGIES.get(kind)
    if cls is None:
        raise ConfigurationError(
            f"unknown adversary strategy {kind!r} (known: {', '.join(STRATEGY_KINDS)})"
        )
    return cls
