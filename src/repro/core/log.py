"""Per-sequence slot bookkeeping for a replica.

A :class:`SlotState` accumulates everything an SBFT replica learns about one
sequence number: the accepted pre-prepare, signature shares collected when the
replica acts as a C-/E-collector, the fast/slow commit certificates, execution
results and the execution certificate.  :class:`ReplicaLog` is the window of
slots between the last stable sequence number and ``ls + win``; it is shared
by both protocols and creates slots of whatever type the replica names (the
runtime needs ``sequence``, ``pre_prepare``, ``digest``, ``committed``,
``executed``, ``execution_results`` and ``state_digest`` on a slot).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.messages import PrePrepare
from repro.crypto.threshold import CombinedSignature


class Tally(dict):
    """Votes counted per value: ``value -> {voter -> payload}``.

    Every quorum in the repo is "k distinct voters for the *same* value", so
    the value (a signed message, a digest, a view) picks the bucket and the
    voter (the identity the signature check authenticated) the place in it.
    A voter's first vote for a value stands; buckets keep arrival order.
    """

    __slots__ = ()

    def add(self, value: Any, voter: int, payload: Any = None) -> int:
        """Record a vote; the value's new voter count, or 0 for a repeat."""
        bucket = self.get(value)
        if bucket is None:
            bucket = self[value] = {}
        elif voter in bucket:
            return 0
        bucket[voter] = payload
        return len(bucket)

    def votes(self, value: Any) -> Dict[int, Any]:
        """The ``voter -> payload`` bucket of ``value`` (empty if nobody voted)."""
        return self.get(value) or {}


@dataclass
class SlotState:
    """Everything a replica knows about one sequence number."""

    sequence: int

    # Pre-prepare / ordering state.
    pre_prepare: Optional[PrePrepare] = None
    pre_prepare_view: int = -1
    digest: Optional[str] = None

    # C-collector state (fast path): sigma/tau shares per signed message.
    sigma_shares: Tally = field(default_factory=Tally)
    tau_shares: Tally = field(default_factory=Tally)
    fast_proof_sent: bool = False
    prepare_sent: bool = False
    fast_path_timer: Optional[int] = None

    # Linear-PBFT state.
    prepare_certificate: Optional[CombinedSignature] = None
    prepare_certificate_view: int = -1
    commit_sent: bool = False
    commit_shares: Tally = field(default_factory=Tally)
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
    sign_state_shares: Tally = field(default_factory=Tally)
    execute_proof: Optional[CombinedSignature] = None      # π(d)
    acks_sent: bool = False

    # Bookkeeping for replies.
    sign_share_sent: bool = False


class ReplicaLog:
    """The sliding window of slots a replica keeps in memory."""

    def __init__(self, window: int, slot_factory: Callable[[int], Any]):
        self.window = window
        self._slot_factory = slot_factory
        self._slots: Dict[int, Any] = {}

    def slot(self, sequence: int) -> Any:
        """Get (or create) the slot for a sequence number."""
        if sequence not in self._slots:
            self._slots[sequence] = self._slot_factory(sequence)
        return self._slots[sequence]

    def peek(self, sequence: int) -> Optional[Any]:
        """Slot if it exists, without creating it."""
        return self._slots.get(sequence)

    def slots(self) -> List[Any]:
        """Every slot held, in sequence order."""
        return [self._slots[sequence] for sequence in sorted(self._slots)]

    def garbage_collect(self, stable_sequence: int) -> int:
        """Drop slots at or below the stable sequence number; returns count."""
        stale = [s for s in self._slots if s <= stable_sequence]
        for sequence in stale:
            del self._slots[sequence]
        return len(stale)

    def in_window(self, sequence: int, last_stable: int) -> bool:
        """Is ``sequence`` within (ls, ls + win]? (Section V-C acceptance rule.)"""
        return last_stable < sequence <= last_stable + self.window
