"""Slotted per-process statistics counters.

Replicas and clients used to keep their counters in ad-hoc dicts; the key
sets are fixed per process type, so each gets a slotted counter class: an
increment is ``stats.blocks_committed += 1`` (a C-level slot store) instead
of a dict hash-probe read-modify-write, and the fixed slot tuple documents
exactly which counters exist.

The base class speaks the two methods of the mapping protocol that
``dict(stats)`` (:class:`repro.protocols.cluster.ClusterResult`) and
``stats["view_changes"]`` need: ``keys`` and ``__getitem__``.  Key *order*
(slot declaration order) matches the literal dicts these classes replaced, so
serialized results are byte-identical.
"""

from __future__ import annotations

from typing import Tuple


class StatCounters:
    """Base: fixed-key integer counters with read-only mapping access."""

    __slots__ = ()

    def __init__(self):
        for key in self.__slots__:
            setattr(self, key, 0)

    def __getitem__(self, key: str) -> int:
        try:
            return getattr(self, key)
        except AttributeError:
            raise KeyError(key) from None

    def keys(self) -> Tuple[str, ...]:
        return self.__slots__


class SBFTReplicaStats(StatCounters):
    """Counters kept by one SBFT replica."""

    __slots__ = (
        "blocks_proposed",
        "blocks_committed",
        "blocks_committed_fast",
        "blocks_committed_slow",
        "blocks_executed",
        "view_changes",
        "state_transfers",
        # Degraded mode: slots whose C-collector skipped the σ wait, and
        # executed blocks this replica answered with direct signed replies.
        "sigma_waits_skipped",
        "blocks_replied_directly",
        # Combined signatures that did not verify, so the collector checked
        # the shares one by one (zero unless a replica forges shares).
        "combine_fallbacks",
    )


class PBFTReplicaStats(StatCounters):
    """Counters kept by one PBFT replica (no fast/slow path split)."""

    __slots__ = (
        "blocks_proposed",
        "blocks_committed",
        "blocks_executed",
        "view_changes",
        "state_transfers",
    )


class ClientStats(StatCounters):
    """Counters kept by one client."""

    __slots__ = (
        "acks_accepted",
        "acks_rejected",
        "fallbacks",
        "retries",
    )
