"""PBFT-specific messages.

Requests, pre-prepares and client replies are shared with the SBFT message
module; only the all-to-all prepare/commit/checkpoint votes and the (simplified)
view-change messages are PBFT-specific.  Every vote carries an RSA-style
signature (256 bytes), matching the signed-message configuration the paper's
baseline uses.

Like :mod:`repro.core.messages`, every class here is a slotted frozen
dataclass whose ``size_bytes`` is an ``int`` fixed at construction (a class
constant for the fixed-size votes), never a recomputed property.
"""

from __future__ import annotations

from dataclasses import field
from typing import Optional, Tuple

from repro.crypto.signatures import Signature
from repro.records import frozen_record

_HEADER = 24


@frozen_record
class PbftPrepare:
    """⟨"prepare", s, v, d, i⟩ signed by replica ``i``, broadcast to all."""

    msg_type = "pbft-prepare"
    size_bytes = _HEADER + 32 + 256

    sequence: int
    view: int
    digest: str
    replica_id: int
    signature: Signature


@frozen_record
class PbftCommit:
    """⟨"commit", s, v, d, i⟩ signed by replica ``i``, broadcast to all."""

    msg_type = "pbft-commit"
    size_bytes = _HEADER + 32 + 256

    sequence: int
    view: int
    digest: str
    replica_id: int
    signature: Signature


@frozen_record
class PbftCheckpoint:
    """⟨"checkpoint", s, d, i⟩ — periodic checkpoint vote."""

    msg_type = "pbft-checkpoint"
    size_bytes = _HEADER + 32 + 256

    sequence: int
    state_digest: str
    replica_id: int
    signature: Signature


@frozen_record
class PbftViewChange:
    """Simplified PBFT view-change: the replica's prepared slots."""

    msg_type = "pbft-view-change"

    new_view: int
    replica_id: int
    last_stable: int
    prepared: Tuple[Tuple[int, int, str, Tuple], ...]  # (sequence, view, digest, requests)
    signature: Optional[Signature] = None
    size_bytes: int = field(init=False, compare=False, repr=False, default=0)

    def __post_init__(self):
        object.__setattr__(self, "size_bytes", _HEADER + 256 + 96 * max(1, len(self.prepared)))


@frozen_record
class PbftNewView:
    """Simplified PBFT new-view carrying the view-change set."""

    msg_type = "pbft-new-view"

    view: int
    view_changes: Tuple[PbftViewChange, ...]
    size_bytes: int = field(init=False, compare=False, repr=False, default=0)

    def __post_init__(self):
        object.__setattr__(
            self, "size_bytes", _HEADER + sum(vc.size_bytes for vc in self.view_changes)
        )
