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

Everything that is not agreement — client intake, batching, execution and
replies, state transfer, the view-change timer, dispatch — is the shared
:class:`repro.core.runtime.Replica`, the same code SBFT runs on.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

from repro.core.config import SBFTConfig
from repro.core.log import ReplicaLog, Tally
from repro.core.messages import (
    ClientRequest,
    PrePrepare,
    StateTransferRequest,
    StateTransferResponse,
)
from repro.core.runtime import Replica, pre_prepare_expected_digest
from repro.core.stats import PBFTReplicaStats
from repro.crypto.costs import CryptoCosts, DEFAULT_COSTS
from repro.crypto.signatures import SigningKey, VerifyKey
from repro.pbft.messages import (
    PbftCheckpoint,
    PbftCommit,
    PbftNewView,
    PbftPrepare,
    PbftViewChange,
)
from repro.services.interface import AuthenticatedService
from repro.sim.events import Simulator
from repro.sim.network import Network


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
        # Votes per digest (the voter's verified ``replica_id``).
        self.prepares = Tally()
        self.commits = Tally()
        self.prepare_sent = False
        self.commit_sent = False
        self.committed = False
        self.executed = False
        self.execution_results: Sequence[Any] = ()
        self.state_digest: Optional[str] = None


class PBFTReplica(Replica):
    """One PBFT replica (the paper's scale-optimized baseline)."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: int,
        config: SBFTConfig,
        signing_key: SigningKey,
        verify_keys: Dict[int, VerifyKey],
        service: AuthenticatedService,
        costs: CryptoCosts = DEFAULT_COSTS,
        client_directory: Optional[Dict[int, int]] = None,
    ):
        super().__init__(
            sim, network, node_id, f"pbft-replica-{node_id}", config,
            signing_key, service, costs, client_directory,
        )
        self.verify_keys = verify_keys
        # Read on every vote, so looked up once (the config is frozen).
        self.quorum = self._new_view_quorum = config.pbft_quorum
        self.log = ReplicaLog(config.window, _PbftSlot)
        self._checkpoints: Dict[int, Tally] = {}
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

    def on_message(self, message: Any, src: int) -> None:
        self.cpu.execute(self._message_cost(message, src), self._dispatch, message, src)

    # ------------------------------------------------------------------
    # Three-phase agreement
    # ------------------------------------------------------------------
    def _on_pre_prepare(self, message: PrePrepare, src: int) -> None:
        if self._not_this_view(message, src) or src != self.primary:
            return
        if not self.log.in_window(message.sequence, self.last_stable):
            return
        slot = self.log.slot(message.sequence)
        # A committed block is final: a new view's re-proposal does not replace it.
        if slot.committed or (slot.pre_prepare is not None and slot.view == message.view):
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
        slot = self.log.slot(message.sequence)
        slot.prepares.add(message.digest, message.replica_id)
        self._check_prepared(slot)

    def _check_prepared(self, slot: _PbftSlot) -> None:
        if slot.commit_sent or slot.digest is None or slot.pre_prepare is None:
            return
        # Prepared: pre-prepare + 2f (+2c) prepares from distinct replicas.
        if len(slot.prepares.votes(slot.digest)) >= self.quorum - 1:
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
        slot = self.log.slot(message.sequence)
        slot.commits.add(message.digest, message.replica_id)
        self._check_committed(slot)

    def _check_committed(self, slot: _PbftSlot) -> None:
        if slot.committed or slot.digest is None:
            return
        if len(slot.commits.votes(slot.digest)) >= self.quorum and slot.pre_prepare is not None:
            slot.committed = True
            self.stats.blocks_committed += 1
            self._try_execute()

    # ------------------------------------------------------------------
    # Replies and checkpoints
    # ------------------------------------------------------------------
    def _after_execute(self, slot: _PbftSlot) -> None:
        """Every replica answers every client (clients wait for f+1), then
        votes for a checkpoint every ``checkpoint_every`` sequences."""
        self._send_block_replies(slot)
        for request in slot.pre_prepare.requests:
            self._direct_reply_waiting.pop(request.request_id, None)
        if slot.sequence % self.config.checkpoint_every == 0:
            self.charge_cpu(self.costs.rsa_sign)
            signature = self.signing_key.sign(("checkpoint", slot.sequence, slot.state_digest))
            self._broadcast(
                PbftCheckpoint(
                    sequence=slot.sequence,
                    state_digest=slot.state_digest,
                    replica_id=self.node_id,
                    signature=signature,
                )
            )

    def _on_checkpoint(self, message: PbftCheckpoint, src: int) -> None:
        key = self.verify_keys.get(message.replica_id)
        if key is None or not key.verify(
            ("checkpoint", message.sequence, message.state_digest), message.signature
        ):
            return
        votes = self._checkpoints.setdefault(message.sequence, Tally())
        # Stable: a quorum voted for the *same* state digest.
        if (
            votes.add(message.state_digest, message.replica_id) >= self.quorum
            and message.sequence > self.last_stable
        ):
            self.last_stable = message.sequence
            collect_up_to = min(self.last_stable, self.last_executed) - self.config.window
            self.log.garbage_collect(collect_up_to)
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
    # Simplified view change
    # ------------------------------------------------------------------
    def build_view_change(self, new_view: int) -> PbftViewChange:
        """Construct this replica's view-change message for ``new_view``."""
        prepared = []
        for slot in self.log.slots():
            if slot.commit_sent and slot.pre_prepare is not None and slot.digest is not None:
                prepared.append((slot.sequence, slot.view, slot.digest, slot.pre_prepare.requests))
        self.charge_cpu(self.costs.rsa_sign)
        return PbftViewChange(
            new_view=new_view,
            replica_id=self.node_id,
            last_stable=self.last_stable,
            prepared=tuple(prepared),
            signature=self.signing_key.sign(("view-change", new_view, self.last_stable)),
        )

    def _on_new_view(self, message: PbftNewView, src: int) -> None:
        if message.view <= self.view or message.view % self._n != src:
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
        # Reset per-view vote state for open slots.
        for slot in self.log.slots():
            if not slot.committed:
                slot.prepares.clear()
                slot.commits.clear()
                slot.prepare_sent = False
                slot.commit_sent = False
                slot.pre_prepare = None
                slot.digest = None
        if self.is_primary:
            for sequence in sorted(best):
                # Frozen baseline accounting: the signature only, no hash.
                self.charge_cpu(self.costs.rsa_sign)
                self._broadcast(self._signed_pre_prepare(sequence, tuple(best[sequence][2])))
            self.next_sequence = max(self.next_sequence, max(best) + 1 if best else self.last_executed + 1)
        self._view_entered({
            request.request_id for _view, _digest, requests in best.values() for request in requests
        })

    # Runtime hooks where the baseline differs (see repro.core.runtime.Replica).
    def _new_view(self, view: int, view_changes: Tuple[PbftViewChange, ...]) -> PbftNewView:
        return PbftNewView(view=view, view_changes=view_changes)

    def _forwards_request_from(self, src: int) -> bool:
        # A backup relays every request to its primary, whoever delivered it.
        return True
