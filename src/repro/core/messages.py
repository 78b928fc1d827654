"""SBFT protocol messages (Section V).

Every message is a slotted frozen dataclass with a ``msg_type`` tag (used for
traffic accounting) and a ``size_bytes`` estimate (used by the network model).
Sizes follow the paper's accounting: BLS signatures/shares are 33 bytes,
RSA-2048 client/replica signatures are 256 bytes, digests are 32 bytes.

Hot-path representation invariants (enforced on the real classes by
``tests/test_hot_path_representation.py``):

* every message class is a ``repro.records.frozen_record`` (a slotted frozen
  dataclass built through its slots), so instances carry no ``__dict__``;
* ``size_bytes`` is an ``int`` computed exactly once in ``__post_init__``
  (or a class-level constant for fixed-size messages) — never a property
  recomputed on every send/record;
* hot derived keys (``ClientRequest.request_id``) are stashed the same way.
"""

from __future__ import annotations

from dataclasses import field
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.crypto.signatures import Signature
from repro.crypto.threshold import CombinedSignature, SignatureShare
from repro.records import frozen_record
from repro.services.interface import ExecutionProof, Operation

_HEADER = 24  # sequence/view/ids/typing overhead per message


def _ops_size(operations: Sequence[Operation]) -> int:
    return sum(op.size_bytes for op in operations)


def _stash(message: Any, size: int) -> None:
    """Set the ``size_bytes`` field of a frozen message at construction."""
    object.__setattr__(message, "size_bytes", size)


@frozen_record
class ClientRequest:
    """⟨"request", o, t, k⟩ — a client's (possibly batched) operation request."""

    msg_type = "request"

    client_id: int
    timestamp: int
    operations: Tuple[Operation, ...]
    signature: Optional[Signature] = None
    size_bytes: int = field(init=False, compare=False, repr=False, default=0)
    request_id: Tuple[int, int] = field(init=False, compare=False, repr=False, default=(0, 0))

    def __post_init__(self):
        _stash(self, _HEADER + _ops_size(self.operations) + (256 if self.signature else 0))
        object.__setattr__(self, "request_id", (self.client_id, self.timestamp))


@frozen_record
class PrePrepare:
    """⟨"pre-prepare", s, v, r⟩ — the primary's decision-block proposal."""

    msg_type = "pre-prepare"

    sequence: int
    view: int
    requests: Tuple[ClientRequest, ...]
    digest: str
    primary_signature: Optional[Signature] = None
    size_bytes: int = field(init=False, compare=False, repr=False, default=0)
    # Execution-plan stash filled lazily by ``block_execution_plan`` (the same
    # frozen object reaches every replica; see repro.core.runtime).
    _exec_plan: Any = field(init=False, compare=False, repr=False, default=None)
    # Per-request reply-values stash filled by ``block_reply_values``, guarded
    # by the post-execution state digest (see repro.core.runtime).
    _reply_values: Any = field(init=False, compare=False, repr=False, default=None)
    # Encoded reply bodies filled by ``block_reply_bodies``, the same guard.
    _reply_bodies: Any = field(init=False, compare=False, repr=False, default=None)
    # Recomputed-digest stash filled by ``pre_prepare_expected_digest`` — a
    # pure function of the frozen fields, so replicas past the first reuse it
    # (each still compares against ``digest`` independently).
    _expected_digest: Any = field(init=False, compare=False, repr=False, default=None)

    def __post_init__(self):
        _stash(self, _HEADER + 32 + sum(r.size_bytes for r in self.requests) + 256)


@frozen_record
class SignShare:
    """⟨"sign-share", s, v, σ_i(h) [, τ_i(h)]⟩ sent to the C-collectors."""

    msg_type = "sign-share"

    sequence: int
    view: int
    replica_id: int
    digest: str
    sigma_share: Optional[SignatureShare] = None
    tau_share: Optional[SignatureShare] = None
    size_bytes: int = field(init=False, compare=False, repr=False, default=0)

    def __post_init__(self):
        shares = (1 if self.sigma_share else 0) + (1 if self.tau_share else 0)
        _stash(self, _HEADER + 32 + 33 * shares)


@frozen_record
class FullCommitProof:
    """⟨"full-commit-proof", s, v, σ(h)⟩ — the fast-path commit certificate."""

    msg_type = "full-commit-proof"
    size_bytes = _HEADER + 32 + 33

    sequence: int
    view: int
    digest: str
    sigma_signature: CombinedSignature


@frozen_record
class Prepare:
    """⟨"prepare", s, v, τ(h)⟩ — linear-PBFT prepare certificate from a collector."""

    msg_type = "prepare"
    size_bytes = _HEADER + 32 + 33

    sequence: int
    view: int
    digest: str
    tau_signature: CombinedSignature


@frozen_record
class Commit:
    """⟨"commit", s, v, τ_i(τ(h))⟩ — a replica's share over the prepare certificate."""

    msg_type = "commit"
    size_bytes = _HEADER + 32 + 33

    sequence: int
    view: int
    replica_id: int
    digest: str
    tau_share_on_tau: SignatureShare


@frozen_record
class FullCommitProofSlow:
    """⟨"full-commit-proof-slow", s, v, τ(τ(h))⟩ — the linear-PBFT commit certificate."""

    msg_type = "full-commit-proof-slow"
    size_bytes = _HEADER + 32 + 33

    sequence: int
    view: int
    digest: str
    tau_tau_signature: CombinedSignature


@frozen_record
class SignState:
    """⟨"sign-state", s, π_i(d)⟩ sent to the E-collectors after execution."""

    msg_type = "sign-state"
    size_bytes = _HEADER + 32 + 33

    sequence: int
    replica_id: int
    state_digest: str
    pi_share: SignatureShare


@frozen_record
class FullExecuteProof:
    """⟨"full-execute-proof", s, π(d)⟩ — the execution certificate."""

    msg_type = "full-execute-proof"
    size_bytes = _HEADER + 32 + 33

    sequence: int
    state_digest: str
    pi_signature: CombinedSignature


@frozen_record
class ExecuteAck:
    """⟨"execute-ack", s, l, val, o, π(d), proof⟩ — the single client acknowledgement."""

    msg_type = "execute-ack"

    sequence: int
    client_id: int
    timestamp: int
    first_position: int
    values: Tuple[Any, ...]
    state_digest: str
    pi_signature: CombinedSignature
    proof: ExecutionProof
    size_bytes: int = field(init=False, compare=False, repr=False, default=0)

    def __post_init__(self):
        proof_size = getattr(self.proof, "size_bytes", 0)  # tests pass proof=None
        _stash(self, _HEADER + 32 + 33 + proof_size + 16 * max(1, len(self.values)))


@frozen_record
class ClientReply:
    """Fallback PBFT-style signed reply from one replica (f+1 path)."""

    msg_type = "client-reply"

    sequence: int
    client_id: int
    timestamp: int
    values: Tuple[Any, ...]
    replica_id: int
    signature: Signature
    size_bytes: int = field(init=False, compare=False, repr=False, default=0)

    def __post_init__(self):
        _stash(self, _HEADER + 256 + 16 * max(1, len(self.values)))


@frozen_record
class CheckpointMsg:
    """Checkpoint vote: the π-share over the state digest at a checkpoint sequence."""

    msg_type = "checkpoint"
    size_bytes = _HEADER + 32 + 33

    sequence: int
    replica_id: int
    state_digest: str
    pi_share: SignatureShare


@frozen_record
class StableCheckpoint:
    """A combined π(d) proof that a checkpoint is stable."""

    msg_type = "stable-checkpoint"
    size_bytes = _HEADER + 32 + 33

    sequence: int
    state_digest: str
    pi_signature: CombinedSignature


# ----------------------------------------------------------------------
# View change (Section V-G)
# ----------------------------------------------------------------------


@frozen_record
class SlotEvidence:
    """Per-slot evidence (lm_j, fm_j) carried in a view-change message.

    ``lm`` (linear-PBFT mode evidence) is one of
      * ``("commit-proof", τ(τ(h)))``
      * ``("prepared", τ(h), view)``
      * ``("no-commit",)``
    ``fm`` (fast mode evidence) is one of
      * ``("fast-proof", σ(h), digest)``
      * ``("pre-prepared", σ_i(h), view, digest)``
      * ``("no-pre-prepare",)``
    ``requests_by_digest`` carries the decision blocks this replica holds for
    the digests referenced in its evidence, so the new primary (and every
    replica repeating the computation) can re-propose or commit the value
    without a separate fetch (the paper transmits the corresponding blocks
    alongside; we fold them into the evidence).
    """

    sequence: int
    lm: Tuple
    fm: Tuple
    requests_by_digest: Tuple[Tuple[str, Tuple["ClientRequest", ...]], ...] = ()
    size_bytes: int = field(init=False, compare=False, repr=False, default=0)

    def __post_init__(self):
        payload = sum(
            sum(r.size_bytes for r in requests) for _digest, requests in self.requests_by_digest
        )
        _stash(self, 16 + 80 + 80 + payload)

    def requests_for(self, digest: str) -> Optional[Tuple["ClientRequest", ...]]:
        for known_digest, requests in self.requests_by_digest:
            if known_digest == digest:
                return requests
        return None


@frozen_record
class ViewChange:
    """⟨"view-change", v, ls, x_ls .. x_{ls+win}⟩."""

    msg_type = "view-change"

    new_view: int
    replica_id: int
    last_stable: int
    stable_proof: Optional[CombinedSignature]
    slots: Tuple[SlotEvidence, ...]
    size_bytes: int = field(init=False, compare=False, repr=False, default=0)

    def __post_init__(self):
        _stash(self, _HEADER + 33 + sum(s.size_bytes for s in self.slots))


@frozen_record
class NewView:
    """The new primary's new-view message: the 2f+2c+1 view-change messages it used."""

    msg_type = "new-view"

    view: int
    view_changes: Tuple[ViewChange, ...]
    size_bytes: int = field(init=False, compare=False, repr=False, default=0)

    def __post_init__(self):
        _stash(self, _HEADER + sum(vc.size_bytes for vc in self.view_changes))


# ----------------------------------------------------------------------
# State transfer
# ----------------------------------------------------------------------


@frozen_record
class StateTransferRequest:
    """A lagging replica asks a peer for the state up to a sequence number."""

    msg_type = "state-transfer-request"
    size_bytes = _HEADER + 8

    replica_id: int
    from_sequence: int


@frozen_record
class StateTransferResponse:
    """Snapshot shipped to a lagging replica."""

    msg_type = "state-transfer-response"
    size_bytes = _HEADER + 32 + 33 + 4096

    up_to_sequence: int
    state_digest: str
    snapshot: Any
    stable_proof: Optional[CombinedSignature] = None
    last_executed_per_client: Optional[Dict[int, int]] = None
    # Donor's per-client reply cache {client: {timestamp: (sequence, values)}}:
    # a re-synced replica must be able to answer retransmissions of executed
    # requests with their *real* values (PBFT ships the last replies with the
    # checkpoint state for exactly this reason).
    reply_cache: Optional[Dict[int, Dict[int, Any]]] = None
