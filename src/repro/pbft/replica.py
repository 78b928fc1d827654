"""Scale-optimized PBFT replica.

Implements the three-phase Castro–Liskov protocol with all-to-all prepare and
commit phases and signed messages:

1. The primary batches client requests and broadcasts a pre-prepare.
2. Every replica broadcasts a signed prepare; a slot is *prepared* once the
   replica holds the pre-prepare and ``2f`` matching prepares from others.
3. Every replica then broadcasts a signed commit; a slot is *committed-local*
   once it holds ``2f + 1`` matching commits, after which it executes blocks
   in order and sends a signed reply to each client (clients wait for ``f+1``).

Checkpoints every ``window/2`` sequences bound the log.  A simplified view
change (prepared-certificate carry-over, no per-message proofs) is included so
fault-injection tests can exercise primary failure; the paper's evaluation
never fails the PBFT primary, so this simplification does not affect the
benchmark comparisons.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.config import SBFTConfig
from repro.core.messages import (
    ClientReply,
    ClientRequest,
    PrePrepare,
    StateTransferRequest,
    StateTransferResponse,
)
from repro.core.reply_cache import ClientReplyTracker
from repro.core.replica import (
    block_execution_plan,
    block_reply_values,
    pre_prepare_expected_digest,
)
from repro.core.stats import PBFTReplicaStats
from repro.crypto.costs import CryptoCosts, DEFAULT_COSTS
from repro.crypto.hashing import block_digest, sha256_hex
from repro.crypto.signatures import SigningKey, VerifyKey
from repro.errors import ConfigurationError
from repro.pbft.messages import (
    PbftCheckpoint,
    PbftCommit,
    PbftNewView,
    PbftPrepare,
    PbftViewChange,
)
from repro.services.interface import ReplicatedService
from repro.sim.events import Simulator
from repro.sim.network import Network
from repro.sim.process import Process


class _PbftSlot:
    """Per-sequence bookkeeping."""

    __slots__ = (
        "sequence",
        "pre_prepare",
        "view",
        "digest",
        "prepares",
        "commits",
        "prepare_sent",
        "commit_sent",
        "committed",
        "executed",
        "execution_results",
        "state_digest",
    )

    def __init__(self, sequence: int):
        self.sequence = sequence
        self.pre_prepare: Optional[PrePrepare] = None
        self.view = -1
        self.digest: Optional[str] = None
        self.prepares: Dict[int, str] = {}
        self.commits: Dict[int, str] = {}
        self.prepare_sent = False
        self.commit_sent = False
        self.committed = False
        self.executed = False
        self.execution_results: List[Any] = []
        self.state_digest: Optional[str] = None


class PBFTReplica(Process):
    """One PBFT replica (the paper's scale-optimized baseline)."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: int,
        config: SBFTConfig,
        signing_key: SigningKey,
        verify_keys: Dict[int, VerifyKey],
        service: ReplicatedService,
        costs: CryptoCosts = DEFAULT_COSTS,
        client_directory: Optional[Dict[int, int]] = None,
    ):
        super().__init__(sim, node_id, name=f"pbft-replica-{node_id}")
        self.network = network
        self.config = config
        self.signing_key = signing_key
        self.verify_keys = verify_keys
        self.service = service
        self.costs = costs
        self.client_directory = client_directory if client_directory is not None else {}

        # Read on every vote, so looked up once (the config is frozen).
        self.quorum = config.pbft_quorum

        self.view = 0
        self.last_executed = 0
        self.last_stable = 0
        self.next_sequence = 1
        self._slots: Dict[int, _PbftSlot] = {}

        self._pending_requests: List[ClientRequest] = []
        self._pending_request_ids: set = set()
        self._batch_timer: Optional[int] = None
        self._executing = False
        # Per-client reply state, shared with SBFTReplica: exact
        # executed-timestamp tracking and the bounded per-request reply
        # cache (see repro.core.reply_cache for the window invariant).
        self._replies = ClientReplyTracker(config.client_max_outstanding)
        self._direct_reply_waiting: Dict[Tuple[int, int], int] = {}

        self._checkpoints: Dict[int, Dict[int, str]] = {}

        # State-transfer throttle (one outstanding request per lag position).
        self._state_transfer_seq = -1
        self._state_transfer_at = float("-inf")

        self._view_change_timer: Optional[int] = None
        self._request_first_seen: Dict[Tuple[int, int], float] = {}
        self._view_changes: Dict[int, Dict[int, PbftViewChange]] = {}
        self._view_change_sent_for: set = set()
        self._new_view_sent_for: set = set()

        self.byzantine_mode: Optional[str] = None
        # Adversary-lab hook, shared with SBFTReplica: called as
        # ``observer(node_id, sequence, block_digest)`` after each block
        # executes (None = no observer).
        self.execution_observer: Optional[Any] = None
        # Cached broadcast destination list (fixed peer set; see SBFTReplica).
        self._peers_all: Tuple[int, ...] = tuple(range(config.n))
        self.stats = PBFTReplicaStats()

        # Type-keyed dispatch and verification-cost tables (hot path); message
        # classes are final, so exact-type lookup matches the old isinstance chain.
        self._handlers = {
            ClientRequest: self._on_client_request,
            PrePrepare: self._on_pre_prepare,
            PbftPrepare: self._on_prepare,
            PbftCommit: self._on_commit,
            PbftCheckpoint: self._on_checkpoint,
            PbftViewChange: self._on_view_change,
            PbftNewView: self._on_new_view,
            StateTransferRequest: self._on_state_transfer_request,
            StateTransferResponse: self._on_state_transfer_response,
        }
        rsa_verify = costs.rsa_verify
        hash_op = costs.hash_op
        self._cost_table = {
            ClientRequest: lambda m: rsa_verify,
            PrePrepare: lambda m: rsa_verify * (1 + len(m.requests)) + hash_op,
            PbftPrepare: lambda m: rsa_verify,
            PbftCommit: lambda m: rsa_verify,
            PbftCheckpoint: lambda m: rsa_verify,
            PbftViewChange: lambda m: rsa_verify,
            PbftNewView: lambda m: rsa_verify,
            StateTransferRequest: lambda m: hash_op,
            StateTransferResponse: lambda m: hash_op,
        }

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.config.n

    @property
    def primary(self) -> int:
        return self.view % self.n

    @property
    def is_primary(self) -> bool:
        return self.primary == self.node_id

    #: Adversarial behaviours this replica implements: ``silent``
    #: (withholding), ``equivocate`` (as primary, conflicting pre-prepares to
    #: odd/even replicas) and ``stale-viewchange`` (zero ``last_stable`` claim
    #: with no prepared evidence).  ``bad-shares`` stays SBFT-only — PBFT uses
    #: plain per-replica signatures, there are no threshold shares to corrupt.
    #: Unknown modes raise instead of silently configuring a no-op adversary.
    BYZANTINE_MODES = frozenset({"silent", "equivocate", "stale-viewchange"})

    def activate_byzantine(self, mode: str) -> None:
        if mode not in self.BYZANTINE_MODES:
            raise ConfigurationError(
                f"unknown byzantine mode {mode!r} for {type(self).__name__} "
                f"(known: {', '.join(sorted(self.BYZANTINE_MODES))})"
            )
        self.byzantine_mode = mode

    def rejoin(self) -> None:
        """Recover from a crash and re-sync via state transfer.

        Mirrors :meth:`repro.core.replica.SBFTReplica.rejoin`: clear the stale
        timer handles and the execution-in-progress flag left behind by
        ``crash()``, then ask a peer for a snapshot.  A peer that is not ahead
        simply does not answer; checkpoint messages re-trigger the transfer
        if the replica lags too far behind the stable point.
        """
        if not self.crashed:
            return
        self.recover()
        self._executing = False
        self._batch_timer = None
        self._view_change_timer = None
        self._request_state_transfer()
        self._try_execute()

    def _slot(self, sequence: int) -> _PbftSlot:
        if sequence not in self._slots:
            self._slots[sequence] = _PbftSlot(sequence)
        return self._slots[sequence]

    def _send(self, dst: int, message: Any) -> None:
        if self.crashed or self.byzantine_mode == "silent":
            return
        self.network.send(self.node_id, dst, message)

    def _broadcast(self, message: Any) -> None:
        if self.crashed or self.byzantine_mode == "silent":
            return
        self.network.broadcast_bulk(self.node_id, message, self._peers_all)

    def _send_to_client(self, client_id: int, message: Any) -> None:
        node = self.client_directory.get(client_id)
        if node is not None:
            self._send(node, message)

    # ------------------------------------------------------------------
    # Dispatch with cost accounting
    # ------------------------------------------------------------------
    def on_message(self, message: Any, src: int) -> None:
        self.compute(self._message_cost(message), self._dispatch, message, src)

    def _message_cost(self, message: Any) -> float:
        cost_fn = self._cost_table.get(type(message))
        if cost_fn is None:
            return self.costs.hash_op
        return cost_fn(message)

    def _dispatch(self, message: Any, src: int) -> None:
        handler = self._handlers.get(type(message))
        if handler is not None:
            handler(message, src)

    # ------------------------------------------------------------------
    # Client requests and batching (mirrors the SBFT primary)
    # ------------------------------------------------------------------
    def _on_client_request(self, request: ClientRequest, src: int) -> None:
        request_id = request.request_id
        if self._replies.executed(*request_id):
            self._send_reply(request.client_id, request.timestamp)
            return
        self._request_first_seen.setdefault(request_id, self.sim.now)
        if not self.is_primary:
            self._direct_reply_waiting[request_id] = request.client_id
            self._send(self.primary, request)
            self._ensure_view_change_timer()
            return
        if request_id in self._pending_request_ids:
            return
        self._pending_request_ids.add(request_id)
        self._pending_requests.append(request)
        self._maybe_propose()

    def _maybe_propose(self) -> None:
        if not self.is_primary or not self._pending_requests:
            return
        threshold = self.config.batch_threshold(self.next_sequence - 1 - self.last_executed)
        if len(self._pending_requests) >= threshold:
            self._propose()
        elif self._batch_timer is None:
            self._batch_timer = self.set_timer(self.config.batch_timeout, self._on_batch_timeout)

    def _on_batch_timeout(self) -> None:
        self._batch_timer = None
        if self.is_primary and self._pending_requests:
            self._propose()

    def _can_propose(self) -> bool:
        return (
            self.next_sequence - 1 - self.last_executed < self.config.active_window
            and self.next_sequence <= self.last_stable + self.config.window
        )

    def _propose(self) -> None:
        if not self._can_propose():
            return
        if self._batch_timer is not None:
            self.cancel_timer(self._batch_timer)
            self._batch_timer = None
        take = self.config.batch_take()
        batch = tuple(self._pending_requests[:take])
        self._pending_requests = self._pending_requests[take:]
        for request in batch:
            self._pending_request_ids.discard(request.request_id)

        sequence = self.next_sequence
        self.next_sequence += 1
        digest = block_digest(sequence, self.view, [r.request_id for r in batch])
        self.charge_cpu(self.costs.hash_op + self.costs.rsa_sign)
        signature = self.signing_key.sign(("pre-prepare", sequence, self.view, digest))
        self.stats.blocks_proposed += 1
        if self.byzantine_mode == "equivocate":
            self._equivocate_pre_prepare(sequence, batch, digest, signature)
        else:
            self._broadcast(
                PrePrepare(
                    sequence=sequence, view=self.view, requests=batch, digest=digest, primary_signature=signature
                )
            )
        if self._pending_requests:
            self._maybe_propose()

    def _equivocate_pre_prepare(
        self,
        sequence: int,
        requests: Tuple[ClientRequest, ...],
        digest_a: str,
        signature_a: Any,
    ) -> None:
        """Byzantine primary: send conflicting blocks to odd/even replicas.

        Mirrors :meth:`repro.core.replica.SBFTReplica._equivocate_pre_prepare`:
        both conflicting pre-prepares are validly signed over their own
        digests so they pass per-message checks and the pair constitutes
        cryptographic equivocation evidence for the forensics layer.
        """
        reversed_requests = tuple(reversed(requests))
        digest_b = block_digest(sequence, self.view, [r.request_id for r in reversed_requests])
        self.charge_cpu(self.costs.hash_op + self.costs.rsa_sign)
        signature_b = self.signing_key.sign(("pre-prepare", sequence, self.view, digest_b))
        msg_a = PrePrepare(sequence, self.view, requests, digest_a, signature_a)
        msg_b = PrePrepare(sequence, self.view, reversed_requests, digest_b, signature_b)
        for dst in range(self.config.n):
            self.network.send(self.node_id, dst, msg_a if dst % 2 == 0 else msg_b)

    # ------------------------------------------------------------------
    # Three-phase agreement
    # ------------------------------------------------------------------
    def _on_pre_prepare(self, message: PrePrepare, src: int) -> None:
        if message.view != self.view or src != self.primary:
            return
        if not (self.last_stable < message.sequence <= self.last_stable + self.config.window):
            return
        slot = self._slot(message.sequence)
        if slot.pre_prepare is not None and slot.view == message.view:
            return
        if pre_prepare_expected_digest(message) != message.digest:
            return
        slot.pre_prepare = message
        slot.view = message.view
        slot.digest = message.digest
        for request in message.requests:
            self._request_first_seen.setdefault(request.request_id, self.sim.now)
        self._ensure_view_change_timer()
        self._send_prepare(slot)
        self._check_prepared(slot)

    def _send_prepare(self, slot: _PbftSlot) -> None:
        if slot.prepare_sent or slot.digest is None:
            return
        slot.prepare_sent = True
        self.charge_cpu(self.costs.rsa_sign)
        signature = self.signing_key.sign(("prepare", slot.sequence, self.view, slot.digest))
        self._broadcast(
            PbftPrepare(
                sequence=slot.sequence,
                view=self.view,
                digest=slot.digest,
                replica_id=self.node_id,
                signature=signature,
            )
        )

    def _on_prepare(self, message: PbftPrepare, src: int) -> None:
        if message.view != self.view:
            return
        key = self.verify_keys.get(message.replica_id)
        if key is None or not key.verify(
            ("prepare", message.sequence, message.view, message.digest), message.signature
        ):
            return
        slot = self._slot(message.sequence)
        slot.prepares[message.replica_id] = message.digest
        self._check_prepared(slot)

    def _check_prepared(self, slot: _PbftSlot) -> None:
        if slot.commit_sent or slot.digest is None or slot.pre_prepare is None:
            return
        # Prepared: pre-prepare + 2f (+2c) prepares from distinct replicas.
        # Matching votes never outnumber votes, so nothing is counted until
        # the dict itself can reach the quorum: with honest (all-matching)
        # votes the scan below runs once per slot, not once per vote.
        needed = self.quorum - 1
        if len(slot.prepares) < needed:
            return
        matching = sum(1 for digest in slot.prepares.values() if digest == slot.digest)
        if matching >= needed:
            slot.commit_sent = True
            self.charge_cpu(self.costs.rsa_sign)
            signature = self.signing_key.sign(("commit", slot.sequence, self.view, slot.digest))
            self._broadcast(
                PbftCommit(
                    sequence=slot.sequence,
                    view=self.view,
                    digest=slot.digest,
                    replica_id=self.node_id,
                    signature=signature,
                )
            )

    def _on_commit(self, message: PbftCommit, src: int) -> None:
        if message.view != self.view:
            return
        key = self.verify_keys.get(message.replica_id)
        if key is None or not key.verify(
            ("commit", message.sequence, message.view, message.digest), message.signature
        ):
            return
        slot = self._slot(message.sequence)
        slot.commits[message.replica_id] = message.digest
        self._check_committed(slot)

    def _check_committed(self, slot: _PbftSlot) -> None:
        if slot.committed or slot.digest is None:
            return
        if len(slot.commits) < self.quorum:  # see _check_prepared
            return
        matching = sum(1 for digest in slot.commits.values() if digest == slot.digest)
        if matching >= self.quorum and slot.pre_prepare is not None:
            slot.committed = True
            self.stats.blocks_committed += 1
            self._try_execute()

    # ------------------------------------------------------------------
    # Execution and replies
    # ------------------------------------------------------------------
    def _try_execute(self) -> None:
        if self._executing or self.crashed:
            return
        slot = self._slots.get(self.last_executed + 1)
        if slot is None or not slot.committed or slot.executed or slot.pre_prepare is None:
            return
        _operations, cost = block_execution_plan(slot.pre_prepare, self.service, self.costs)
        self._executing = True
        self.compute(cost, self._finish_execution, slot.sequence)

    def _finish_execution(self, sequence: int) -> None:
        self._executing = False
        slot = self._slots.get(sequence)
        if slot is None or slot.executed or not slot.committed or sequence != self.last_executed + 1:
            self._try_execute()
            return
        operations, _cost = block_execution_plan(slot.pre_prepare, self.service, self.costs)
        slot.execution_results = self.service.execute_block(sequence, operations)
        slot.executed = True
        self.last_executed = sequence
        self.stats.blocks_executed += 1
        slot.state_digest = (
            self.service.digest() if hasattr(self.service, "digest") else sha256_hex("state", sequence)
        )

        if self.execution_observer is not None:
            self.execution_observer(self.node_id, sequence, slot.pre_prepare.digest)

        reply_values = block_reply_values(
            slot.pre_prepare, slot.execution_results, slot.state_digest
        )
        for request, values in zip(slot.pre_prepare.requests, reply_values):
            self._replies.record(request.client_id, request.timestamp, sequence, values)
            self.charge_cpu(self.costs.rsa_sign)
            signature = self.signing_key.sign(("reply", request.client_id, request.timestamp, values))
            self._send_to_client(
                request.client_id,
                ClientReply(
                    sequence=sequence,
                    client_id=request.client_id,
                    timestamp=request.timestamp,
                    values=values,
                    replica_id=self.node_id,
                    signature=signature,
                ),
            )
            self._request_first_seen.pop(request.request_id, None)
            self._direct_reply_waiting.pop(request.request_id, None)

        if not self._request_first_seen and self._view_change_timer is not None:
            self.cancel_timer(self._view_change_timer)
            self._view_change_timer = None

        if sequence % self.config.checkpoint_every == 0:
            self.charge_cpu(self.costs.rsa_sign)
            signature = self.signing_key.sign(("checkpoint", sequence, slot.state_digest))
            self._broadcast(
                PbftCheckpoint(
                    sequence=sequence,
                    state_digest=slot.state_digest,
                    replica_id=self.node_id,
                    signature=signature,
                )
            )

        if self.is_primary:
            self._maybe_propose()
        self._try_execute()

    def _send_reply(self, client_id: int, timestamp: int) -> None:
        """Answer a retransmission of an executed request with its own reply,
        cache-only — a replica that merely knows the request executed stays
        silent (see :meth:`repro.core.replica.SBFTReplica._send_direct_reply`)."""
        entry = self._replies.reply(client_id, timestamp)
        if entry is None:
            return
        sequence, values = entry
        self.charge_cpu(self.costs.rsa_sign)
        signature = self.signing_key.sign(("reply", client_id, timestamp, values))
        self._send_to_client(
            client_id,
            ClientReply(
                sequence=sequence,
                client_id=client_id,
                timestamp=timestamp,
                values=values,
                replica_id=self.node_id,
                signature=signature,
            ),
        )

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------
    def _on_checkpoint(self, message: PbftCheckpoint, src: int) -> None:
        key = self.verify_keys.get(message.replica_id)
        if key is None or not key.verify(
            ("checkpoint", message.sequence, message.state_digest), message.signature
        ):
            return
        votes = self._checkpoints.setdefault(message.sequence, {})
        votes[message.replica_id] = message.state_digest
        # Stable: a quorum voted for the *same* state digest (only the digest
        # just voted for can have newly reached it).
        if (
            message.sequence > self.last_stable
            and len(votes) >= self.quorum
            and list(votes.values()).count(message.state_digest) >= self.quorum
        ):
            self.last_stable = message.sequence
            collect_up_to = min(self.last_stable, self.last_executed) - self.config.window
            stale = [s for s in self._slots if s <= collect_up_to]
            for sequence in stale:
                del self._slots[sequence]
            stale_votes = [s for s in self._checkpoints if s <= collect_up_to]
            for sequence in stale_votes:
                del self._checkpoints[sequence]
        # Catch-up trigger: a replica this far behind a peer's checkpoint
        # cannot close the gap from its own log (the missed pre-prepares are
        # gone, e.g. after the simplified view change wiped in-flight slots)
        # — fetch a snapshot instead of wedging.
        if self.last_executed + self.config.state_transfer_lag < message.sequence:
            self._request_state_transfer(hint=message.replica_id)

    # ------------------------------------------------------------------
    # State transfer (shares the SBFT message types; used by rejoin and by
    # replicas that lag too far behind the stable point)
    # ------------------------------------------------------------------
    def _request_state_transfer(self, hint: Optional[int] = None) -> None:
        # Throttle as in SBFT: n-1 peers' checkpoints would otherwise each
        # draw a full snapshot while this replica lags.  Re-request only
        # after progress or a retry window.
        if (
            self._state_transfer_seq == self.last_executed
            and self.sim.now - self._state_transfer_at < self.config.client_retry_timeout
        ):
            return
        target = hint
        if target is None or target == self.node_id:
            candidates = [r for r in range(self.n) if r != self.node_id]
            target = candidates[self.sim.rng.randrange(len(candidates))] if candidates else None
        if target is None:
            return
        self._state_transfer_seq = self.last_executed
        self._state_transfer_at = self.sim.now
        self.stats.state_transfers += 1
        self._send(target, StateTransferRequest(replica_id=self.node_id, from_sequence=self.last_executed))

    def _on_state_transfer_request(self, message: StateTransferRequest, src: int) -> None:
        if self.last_executed <= message.from_sequence:
            return
        snapshot = self.service.snapshot()
        slot = self._slots.get(self.last_executed)
        response = StateTransferResponse(
            up_to_sequence=self.last_executed,
            state_digest=slot.state_digest if slot is not None and slot.state_digest else "",
            snapshot=snapshot,
            stable_proof=None,
            last_executed_per_client=self._replies.prefixes(),
            reply_cache=self._replies.cache_snapshot(),
        )
        self._send(src, response)

    def _on_state_transfer_response(self, message: StateTransferResponse, src: int) -> None:
        if message.up_to_sequence <= self.last_executed:
            return
        self.charge_cpu(self.costs.persist_per_byte * 1_000_000)
        self.service.restore(message.snapshot)
        self.last_executed = message.up_to_sequence
        self.last_stable = max(self.last_stable, message.up_to_sequence)
        self._replies.adopt_prefixes(message.last_executed_per_client)
        self._replies.adopt_cache(message.reply_cache)
        self._executing = False
        self._try_execute()

    # ------------------------------------------------------------------
    # Simplified view change
    # ------------------------------------------------------------------
    def _ensure_view_change_timer(self) -> None:
        if self._view_change_timer is None and not self.crashed:
            self._view_change_timer = self.set_timer(
                self.config.view_change_timeout, self._on_view_change_timeout
            )

    def _on_view_change_timeout(self) -> None:
        self._view_change_timer = None
        if not self._request_first_seen:
            return
        oldest = min(self._request_first_seen.values())
        if self.sim.now - oldest < self.config.view_change_timeout:
            self._ensure_view_change_timer()
            return
        self._start_view_change(self.view + 1)

    def _start_view_change(self, new_view: int) -> None:
        if new_view <= self.view or new_view in self._view_change_sent_for:
            return
        self._view_change_sent_for.add(new_view)
        self.stats.view_changes += 1
        message = self.build_view_change(new_view)
        self._broadcast(message)
        self._ensure_view_change_timer()

    def build_view_change(self, new_view: int) -> PbftViewChange:
        """Construct this replica's view-change message for ``new_view``.

        Under the ``stale-viewchange`` byzantine mode the message claims a
        zero stable point with no prepared evidence — a validly signed lie
        the new primary must tolerate (the honest quorum's evidence
        dominates in the simplified carry-over).
        """
        if self.byzantine_mode == "stale-viewchange":
            self.charge_cpu(self.costs.rsa_sign)
            return PbftViewChange(
                new_view=new_view,
                replica_id=self.node_id,
                last_stable=0,
                prepared=(),
                signature=self.signing_key.sign(("view-change", new_view, 0)),
            )
        prepared = []
        for sequence, slot in sorted(self._slots.items()):
            if slot.commit_sent and slot.pre_prepare is not None and slot.digest is not None:
                prepared.append((sequence, slot.view, slot.digest, slot.pre_prepare.requests))
        self.charge_cpu(self.costs.rsa_sign)
        return PbftViewChange(
            new_view=new_view,
            replica_id=self.node_id,
            last_stable=self.last_stable,
            prepared=tuple(prepared),
            signature=self.signing_key.sign(("view-change", new_view, self.last_stable)),
        )

    def _on_view_change(self, message: PbftViewChange, src: int) -> None:
        if message.new_view <= self.view:
            return
        per_view = self._view_changes.setdefault(message.new_view, {})
        per_view[message.replica_id] = message
        if len(per_view) >= self.config.f + 1 and message.new_view not in self._view_change_sent_for:
            self._start_view_change(message.new_view)
        if message.new_view % self.n == self.node_id and len(per_view) >= self.quorum:
            if message.new_view not in self._new_view_sent_for:
                self._new_view_sent_for.add(message.new_view)
                selected = tuple(list(per_view.values())[: self.quorum])
                self._broadcast(PbftNewView(view=message.new_view, view_changes=selected))

    def _on_new_view(self, message: PbftNewView, src: int) -> None:
        if message.view <= self.view or message.view % self.n != src:
            return
        if len(message.view_changes) < self.quorum:
            return
        self.view = message.view
        if self._view_change_timer is not None:
            self.cancel_timer(self._view_change_timer)
            self._view_change_timer = None
        # Re-propose the highest prepared value per slot (simplified carry-over).
        best: Dict[int, Tuple[int, str, Tuple]] = {}
        for view_change in message.view_changes:
            for sequence, view, digest, requests in view_change.prepared:
                if sequence <= self.last_stable:
                    continue
                if sequence not in best or view > best[sequence][0]:
                    best[sequence] = (view, digest, requests)
        if self.is_primary:
            for sequence in sorted(best):
                _view, _digest, requests = best[sequence]
                digest = block_digest(sequence, self.view, [r.request_id for r in requests])
                self.charge_cpu(self.costs.rsa_sign)
                signature = self.signing_key.sign(("pre-prepare", sequence, self.view, digest))
                self._broadcast(
                    PrePrepare(
                        sequence=sequence,
                        view=self.view,
                        requests=tuple(requests),
                        digest=digest,
                        primary_signature=signature,
                    )
                )
            self.next_sequence = max(self.next_sequence, max(best) + 1 if best else self.last_executed + 1)
            self._maybe_propose()
        # Reset per-view vote state for open slots.
        for slot in self._slots.values():
            if not slot.committed:
                slot.prepares.clear()
                slot.commits.clear()
                slot.prepare_sent = False
                slot.commit_sent = False
                slot.pre_prepare = None
                slot.digest = None
