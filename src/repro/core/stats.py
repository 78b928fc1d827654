"""Slotted per-process statistics counters.

Replicas and clients used to keep their counters in ad-hoc dicts; the key
sets are fixed per process type, so each gets a slotted counter class: an
increment is ``stats.blocks_committed += 1`` (a C-level slot store) instead
of a dict hash-probe read-modify-write, and the fixed slot tuple documents
exactly which counters exist.

The base class speaks enough of the mapping protocol (``keys``,
``__getitem__``, ``get``, ``items``, iteration) that existing consumers —
``dict(stats)`` in :class:`repro.protocols.cluster.ClusterResult`,
``stats["view_changes"]`` in tests and experiments — keep working unchanged.
Key *order* (slot declaration order) matches the literal dicts these classes
replaced, so serialized results are byte-identical.
"""

from __future__ import annotations

from typing import Any, Iterator, Tuple


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

    def __setitem__(self, key: str, value: int) -> None:
        if key not in self.__slots__:
            raise KeyError(key)
        setattr(self, key, value)

    def get(self, key: str, default: Any = None) -> Any:
        return getattr(self, key, default)

    def keys(self) -> Tuple[str, ...]:
        return self.__slots__

    def items(self) -> Iterator[Tuple[str, int]]:
        for key in self.__slots__:
            yield key, getattr(self, key)

    def __iter__(self) -> Iterator[str]:
        return iter(self.__slots__)

    def __len__(self) -> int:
        return len(self.__slots__)

    def __contains__(self, key: object) -> bool:
        return key in self.__slots__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, StatCounters):
            return dict(self) == dict(other)
        if isinstance(other, dict):
            return dict(self) == other
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{key}={getattr(self, key)}" for key in self.__slots__)
        return f"{type(self).__name__}({inner})"


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
        # Parked τ shares a C-collector checked before combining τ (zero
        # while every slot commits on the fast path).
        "tau_shares_checked",
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
