"""Per-sequence slot bookkeeping for a replica.

A :class:`SlotState` accumulates everything an SBFT replica learns about one
sequence number: the accepted pre-prepare, signature shares collected when the
replica acts as a C-/E-collector (a :class:`Tally` allocated by the first
share filed), the fast/slow commit certificates, execution results and the
execution certificate.  :class:`ReplicaLog` is the window of
slots above the replica's stable point; it is shared by both protocols and
creates slots of whatever type the replica names (the runtime needs
``sequence``, ``pre_prepare``, ``digest``, ``committed``, ``executed``,
``execution_results`` and ``state_digest`` on a slot).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.core.messages import PrePrepare
from repro.crypto.threshold import CombinedSignature


#: The one bucket every closed value shares (see :meth:`Tally.close`): empty
#: and read-only.
CLOSED: Mapping[int, Any] = MappingProxyType({})


class Tally(dict):
    """Votes counted per value: ``value -> {voter -> payload}``.

    Every quorum in the repo is "k distinct voters for the *same* value", so
    the value (a signed message, a digest, a view) picks the bucket and the
    voter (the identity the signature check authenticated) the place in it.
    A voter's first vote for a value stands; buckets keep arrival order.
    Once a value's certificate exists its bucket is closed: the votes are
    dropped and any later vote counts as a repeat.
    """

    __slots__ = ()

    def add(self, value: Any, voter: int, payload: Any = None) -> int:
        """Record a vote; the value's new voter count, or 0 for a repeat."""
        bucket = self.get(value)
        if bucket is None:
            bucket = self[value] = {}
        elif bucket is CLOSED or voter in bucket:
            return 0
        bucket[voter] = payload
        return len(bucket)

    def votes(self, value: Any) -> Dict[int, Any]:
        """The ``voter -> payload`` bucket of ``value`` (empty if nobody voted
        or the value is closed)."""
        return self.get(value) or {}

    def close(self, value: Any) -> None:
        """Drop the votes for ``value``; every later ``add`` of it returns 0."""
        self[value] = CLOSED


@dataclass(slots=True)
class SlotState:
    """Everything a replica knows about one sequence number."""

    sequence: int

    # Pre-prepare / ordering state.
    pre_prepare: Optional[PrePrepare] = None
    pre_prepare_view: int = -1
    digest: Optional[str] = None

    # Collector state: threshold shares per ``(scheme name, signed message)``
    # (σ and τ over ``("sign", ...)``, τ over ``("commit", ...)``, π over
    # ``("state", ...)``); ``None`` until this replica, as one of the slot's
    # collectors, files the first share.
    shares: Optional[Tally] = None

    # C-collector state (fast path).
    fast_proof_sent: bool = False
    prepare_sent: bool = False
    fast_path_timer: Optional[int] = None

    # Linear-PBFT state.
    prepare_certificate: Optional[CombinedSignature] = None
    prepare_certificate_view: int = -1
    commit_sent: bool = False
    slow_proof_sent: bool = False

    # Commit state.
    committed: bool = False
    commit_proof: Optional[CombinedSignature] = None      # σ(h)
    commit_proof_slow: Optional[CombinedSignature] = None  # τ(τ(h))
    committed_via_fast_path: bool = False

    # Execution state.
    executed: bool = False
    execution_results: Sequence[Any] = ()
    state_digest: Optional[str] = None

    # E-collector state.
    execute_proof: Optional[CombinedSignature] = None      # π(d)
    acks_sent: bool = False

    # Bookkeeping for replies.
    sign_share_sent: bool = False


class ReplicaLog:
    """The window of slots a replica keeps in memory.

    ``low`` is the low-water mark: every slot at or below it has been
    collected (:meth:`collect`) except the few the replica still holds, and
    :meth:`slot` creates none there.
    """

    def __init__(self, window: int, slot_factory: Callable[[int], Any]):
        self.window = window
        self._slot_factory = slot_factory
        self._slots: Dict[int, Any] = {}
        self.low = 0
        # Sequences at or below ``low`` whose slot is still held.
        self._held: List[int] = []

    def slot(self, sequence: int) -> Optional[Any]:
        """The slot for a sequence number, created if need be; ``None`` for a
        collected one (at or below ``low`` and not held)."""
        slot = self._slots.get(sequence)
        if slot is None and sequence > self.low:
            slot = self._slots[sequence] = self._slot_factory(sequence)
        return slot

    def peek(self, sequence: int) -> Optional[Any]:
        """Slot if it exists, without creating it."""
        return self._slots.get(sequence)

    def slots(self) -> List[Any]:
        """Every slot held, in sequence order."""
        return [self._slots[sequence] for sequence in sorted(self._slots)]

    def collect(self, up_to: int, horizon: int, holds: Callable[[Any], bool]) -> int:
        """Raise ``low`` to ``up_to`` and drop every slot at or below it that
        ``holds(slot)`` does not keep (those held earlier are asked again),
        and every one at or below ``horizon`` whatever it says.  Returns the
        sequence at or below which no slot is left."""
        slots = self._slots
        held = []
        for sequence in self._held + list(range(self.low + 1, up_to + 1)):
            slot = slots.get(sequence)
            if slot is None:
                continue
            if sequence > horizon and holds(slot):
                held.append(sequence)
            else:
                del slots[sequence]
        self.low = max(self.low, up_to)
        self._held = held
        return held[0] - 1 if held else self.low

    def in_window(self, sequence: int, last_stable: int) -> bool:
        """Is ``sequence`` within (ls, ls + win]? (Section V-C acceptance rule.)"""
        return last_stable < sequence <= last_stable + self.window
