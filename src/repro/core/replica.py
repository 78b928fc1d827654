"""The SBFT replica state machine (Section V).

One :class:`SBFTReplica` plays every role the paper assigns to replicas:

* **Primary** of the current view: batches client requests into decision
  blocks and broadcasts pre-prepare messages.
* **Backup**: signs decision blocks with its σ/τ threshold shares and sends
  them to the C-collectors of the slot.
* **C-collector**: combines ``3f + c + 1`` σ-shares into a fast-path
  full-commit-proof, or — after the fast-path timer — ``2f + c + 1`` τ-shares
  into a linear-PBFT prepare certificate and later the τ(τ(h)) commit
  certificate.
* **E-collector**: combines ``f + 1`` π-shares over the post-execution state
  digest into an execution certificate and sends each client its single
  execute-ack with a Merkle proof.

The same class also implements checkpointing / garbage collection
(Section V-F), the dual-mode view change (Section V-G, with the safe-value
computation in :mod:`repro.core.viewchange`), and the two ingredient toggles
used to build the protocol variants of the evaluation (fast path, execution
collectors); linear communication is this class itself, against the
all-to-all :class:`repro.pbft.replica.PBFTReplica`.

Client intake, batching, execution, state transfer, the view-change timer,
dispatch and cost accounting are the shared :class:`repro.core.runtime.Replica`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.config import SBFTConfig
from repro.core.keys import ReplicaKeys
from repro.core.log import ReplicaLog, SlotState, Tally
from repro.core.messages import (
    CheckpointMsg,
    ClientReply,
    ClientRequest,
    Commit,
    ExecuteAck,
    FullCommitProof,
    FullCommitProofSlow,
    FullExecuteProof,
    NewView,
    Prepare,
    PrePrepare,
    SignShare,
    SignState,
    SlotEvidence,
    StableCheckpoint,
    StateTransferRequest,
    StateTransferResponse,
    ViewChange,
)
from repro.core.roles import commit_collectors, execution_collectors, primary_of_view
from repro.core.runtime import Replica, block_reply_values, pre_prepare_expected_digest
from repro.core.stats import SBFTReplicaStats
from repro.core.viewchange import (
    ACTION_ADOPT,
    ACTION_COMMIT,
    ACTION_NOOP,
    FM_FAST_PROOF,
    FM_NO_PRE_PREPARE,
    FM_PRE_PREPARED,
    LM_COMMIT_PROOF,
    LM_NO_COMMIT,
    LM_PREPARED,
    NewViewPlan,
    compute_new_view_plan,
)
from repro.crypto.costs import CryptoCosts, DEFAULT_COSTS
from repro.crypto.hashing import memo_key
from repro.crypto.threshold import ThresholdScheme
from repro.errors import CryptoError
from repro.services.interface import AuthenticatedService
from repro.sim.events import Simulator
from repro.sim.network import Network


class SBFTReplica(Replica):
    """One SBFT replica."""

    #: The view-change timeout doubles with every failed attempt.
    VIEW_CHANGE_BACKOFF = 2
    #: Consecutive slow-path commits after which this replica is *degraded*:
    #: as C-collector it stops waiting out ``fast_path_timeout`` for σ, and it
    #: answers clients itself (PBFT's reply pattern).  One fast commit ends it.
    DEGRADED_AFTER = 2

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: int,
        config: SBFTConfig,
        keys: ReplicaKeys,
        service: AuthenticatedService,
        costs: CryptoCosts = DEFAULT_COSTS,
        client_directory: Optional[Dict[int, int]] = None,
        collector_groups: Optional[Dict[Tuple, Tuple[int, ...]]] = None,
    ):
        super().__init__(
            sim, network, node_id, f"replica-{node_id}", config,
            keys.signing_key, service, costs, client_directory,
        )
        # The σ/τ/π threshold schemes (the PKI signing key is the runtime's).
        self.keys = keys
        self._collectors_per_slot = config.collectors_per_slot
        # ``(roles function, sequence, view) -> group``.  Every replica of a
        # run computes the same groups for the same slots, so
        # ``Cluster._build`` hands them all one dict (one hash + modulo walk
        # per group per run); a replica built on its own keeps its own.  Two
        # short tuples per slot and view the run reaches, gone with the run.
        self._group_memo = {} if collector_groups is None else collector_groups
        self.log = ReplicaLog(config.window, SlotState)

        self._new_view_quorum = config.view_change_quorum

        # Checkpoint π shares per sequence (used when execution collectors
        # are disabled).
        self._checkpoint_shares: Dict[int, Tally] = {}
        # ``(scheme name, signed) -> k``: a fallback of ``_combine`` found the
        # first k shares of that bucket valid, and too few of them.
        self._valid_prefix: Dict[Tuple[str, Tuple], int] = {}
        # Senders of a share that failed its check: nothing more of theirs is
        # filed (a forger cannot make a collector pay a fallback per resend).
        self._blamed: set = set()

        # Slow-path commits seen since the last fast one (see DEGRADED_AFTER).
        self._slow_streak = 0

        # Hot-path dispatch: type-keyed handler and verification-cost tables,
        # built once here instead of a 15-branch isinstance chain per message.
        # Message classes are final (frozen dataclasses), so exact-type lookup
        # is equivalent to the old isinstance cascade.
        self._handlers = {
            ClientRequest: self._on_client_request,
            PrePrepare: self._on_pre_prepare,
            SignShare: self._on_sign_share,
            FullCommitProof: self._on_full_commit_proof,
            Prepare: self._on_prepare,
            Commit: self._on_commit,
            FullCommitProofSlow: self._on_full_commit_proof_slow,
            SignState: self._on_sign_state,
            FullExecuteProof: self._on_full_execute_proof,
            CheckpointMsg: self._on_checkpoint,
            StableCheckpoint: self._on_stable_checkpoint,
            ViewChange: self._on_view_change,
            NewView: self._on_new_view,
            StateTransferRequest: self._on_state_transfer_request,
            StateTransferResponse: self._on_state_transfer_response,
        }
        self._cost_table = self._build_cost_table(costs)

        # Statistics (slotted fixed-key counters; mapping reads still work).
        self.stats = SBFTReplicaStats()

    def on_message(self, message: Any, src: int) -> None:
        self.cpu.execute(self._message_cost(message, src), self._dispatch, message, src)

    # ==================================================================
    # Role helpers
    # ==================================================================
    def _collectors(self, pick, sequence: int, view: Optional[int]) -> Tuple[int, ...]:
        if view is None:
            view = self.view
        key = (pick, sequence, view)
        group = self._group_memo.get(key)
        if group is None:
            group = pick(sequence, view, self._n, self._collectors_per_slot)
            self._group_memo[key] = group
        return group

    def _c_collectors(self, sequence: int, view: Optional[int] = None) -> Tuple[int, ...]:
        # ``commit_collectors`` puts the primary last by default (Section V-E).
        return self._collectors(commit_collectors, sequence, view)

    def _e_collectors(self, sequence: int, view: Optional[int] = None) -> Tuple[int, ...]:
        return self._collectors(execution_collectors, sequence, view)

    def _is_c_collector(self, sequence: int, view: Optional[int] = None) -> bool:
        return self.node_id in self._c_collectors(sequence, view)

    def _is_e_collector(self, sequence: int, view: Optional[int] = None) -> bool:
        return self.node_id in self._e_collectors(sequence, view)

    # ==================================================================
    # Per-message verification costs
    # ==================================================================
    def _build_cost_table(self, costs: CryptoCosts) -> Dict[type, Any]:
        """Precompute per-type verification-cost functions (hot path).  A
        threshold share is filed unchecked, one hash; ``_combine`` pays for
        checking the combined signature (see ``CryptoCosts``)."""
        combined = costs.bls_verify_combined
        rsa_verify = costs.rsa_verify
        hash_op = costs.hash_op

        def constant(value: float):
            return lambda message: value

        def pre_prepare_cost(message: PrePrepare) -> float:
            return rsa_verify * (1 + len(message.requests)) + hash_op

        def sign_share_cost(message: SignShare) -> float:
            return hash_op * ((message.sigma_share is not None) + (message.tau_share is not None))

        def view_change_cost(message: ViewChange) -> float:
            return combined + hash_op * max(1, len(message.slots))

        def new_view_cost(message: NewView) -> float:
            return combined * max(1, len(message.view_changes))

        return {
            ClientRequest: constant(rsa_verify),
            PrePrepare: pre_prepare_cost,
            SignShare: sign_share_cost,
            Commit: constant(hash_op),
            SignState: constant(hash_op),
            CheckpointMsg: constant(hash_op),
            FullCommitProof: constant(combined),
            FullCommitProofSlow: constant(combined),
            Prepare: constant(combined),
            FullExecuteProof: constant(combined),
            StableCheckpoint: constant(combined),
            ClientReply: constant(rsa_verify),
            ViewChange: view_change_cost,
            NewView: new_view_cost,
            # State transfer is checked by digest comparison against the
            # requester's own stable checkpoint; one hash each (these were
            # previously priced by the default-cost fallback — same value).
            StateTransferRequest: constant(hash_op),
            StateTransferResponse: constant(hash_op),
        }

    # ==================================================================
    # Collecting shares: the only ``verify_share`` and ``combine`` calls
    # ==================================================================
    def _file(self, tally: Tally, share: Any, signed: Tuple, src: int) -> int:
        """File a share over ``signed`` *unchecked* (its arrival costs one
        hash), and only under its authenticated sender ``src``: nobody can
        take another signer's place in the bucket, and a blamed sender files
        nothing.  That message's new signer count, or 0 if the share added
        nothing.  ``signed`` is its own ``memo_key``, so the match is
        type-exact (``1.0`` is not ``1``)."""
        if (
            share is None or share.signer_id != src or src in self._blamed
            or memo_key(share.message) != signed
        ):
            return 0
        return tally.add(signed, src, share)

    def _combine(self, tally: Tally, scheme: ThresholdScheme, signed: Tuple) -> Optional[Any]:
        """Combine the first ``threshold`` shares filed under ``signed`` and
        check the result: one combine and one combined check, whatever the
        share count.  If the check fails, ``_drop_invalid_shares`` and, once
        ``threshold`` valid shares lead the bucket, combine those (no second
        check).  ``None`` while too few valid shares remain."""
        bucket = tally.votes(signed)
        proof = self._combine_first(bucket, scheme, self.costs.bls_verify_combined)
        if proof is not None and scheme.verify(proof):
            return proof
        key = (scheme.name, signed)
        valid = self._drop_invalid_shares(bucket, scheme, self._valid_prefix.pop(key, 0))
        if valid < scheme.threshold:
            self._valid_prefix[key] = valid
            return None
        return self._combine_first(bucket, scheme, 0.0)

    def _combine_first(self, bucket: Dict[int, Any], scheme: ThresholdScheme, check: float) -> Optional[Any]:
        """The first ``threshold`` shares of ``bucket`` combined, charged with
        the ``check`` that follows; ``None`` if one is off the group (forged)."""
        self.charge_cpu(self.costs.combine_cost(scheme.threshold) + check)
        try:
            return scheme.combine(list(bucket.values())[: scheme.threshold], verify=False)
        except CryptoError:
            return None

    def _drop_invalid_shares(self, bucket: Dict[int, Any], scheme: ThresholdScheme, valid: int) -> int:
        """The fallback of a combined signature that did not verify (only a
        forged share makes one): check the shares after the first ``valid``
        one at a time in arrival order until ``threshold`` are valid,
        deleting the invalid ones and blaming their senders.  The checked
        valid shares stay a prefix of the bucket, so no share is checked
        twice.  The prefix's new length."""
        self.stats.combine_fallbacks += 1
        checked = 0
        for voter, share in list(bucket.items())[valid:]:
            if valid == scheme.threshold:
                break
            checked += 1
            if scheme.verify_share(share):
                valid += 1
            else:
                del bucket[voter]
                self._blamed.add(voter)
        self.charge_cpu(checked * self.costs.bls_batch_verify_per_share)
        return valid

    # ==================================================================
    # Fast path: pre-prepare -> sign-share -> full-commit-proof
    # ==================================================================
    def _on_pre_prepare(self, message: PrePrepare, src: int) -> None:
        if self._not_this_view(message, src) or src != self.primary:
            return
        slot = self.log.slot(message.sequence)
        if slot.pre_prepare is not None and slot.pre_prepare_view == message.view:
            return
        if not self.log.in_window(message.sequence, self.last_stable):
            return
        if pre_prepare_expected_digest(message) != message.digest:
            return

        if slot.pre_prepare is not None and message.view > slot.pre_prepare_view:
            self._reset_slot_for_new_view(slot)
        slot.pre_prepare = message
        slot.pre_prepare_view = message.view
        slot.digest = message.digest
        for request in message.requests:
            self._request_first_seen.setdefault(request.request_id, self.sim.now)
        self._ensure_view_change_timer()
        self._send_sign_share(slot)
        self._try_execute()

    def _reset_slot_for_new_view(self, slot: SlotState) -> None:
        """Clear per-view ordering state when a slot is re-proposed in a later view."""
        slot.sign_share_sent = False
        slot.fast_proof_sent = False
        slot.prepare_sent = False
        slot.commit_sent = False
        slot.slow_proof_sent = False
        slot.prepare_certificate = None
        slot.prepare_certificate_view = -1
        if slot.fast_path_timer is not None:
            self.cancel_timer(slot.fast_path_timer)
            slot.fast_path_timer = None

    def _send_sign_share(self, slot: SlotState) -> None:
        if slot.sign_share_sent or slot.digest is None:
            return
        slot.sign_share_sent = True
        sign_message = ("sign", slot.sequence, slot.pre_prepare_view, slot.digest)
        sigma_share = self.keys.sigma.sign_share(self.node_id, sign_message)
        tau_share = self.keys.tau.sign_share(self.node_id, sign_message)
        self.charge_cpu(2 * self.costs.bls_sign_share)
        share_message = SignShare(
            sequence=slot.sequence,
            view=slot.pre_prepare_view,
            replica_id=self.node_id,
            digest=slot.digest,
            sigma_share=sigma_share if self.config.fast_path_enabled else None,
            tau_share=tau_share,
        )
        for collector in self._c_collectors(slot.sequence, slot.pre_prepare_view):
            self._send(collector, share_message)

    def _on_sign_share(self, message: SignShare, src: int) -> None:
        if message.view != self.view:
            return
        if not self._is_c_collector(message.sequence, message.view):
            return
        slot = self.log.slot(message.sequence)
        signed = ("sign", message.sequence, message.view, message.digest)
        sigma = self._file(slot.sigma_shares, message.sigma_share, signed, src)
        tau = self._file(slot.tau_shares, message.tau_share, signed, src)
        self._collector_progress(slot, signed, sigma, tau)

    def _collector_progress(self, slot: SlotState, signed: Tuple, sigma: int, tau: int) -> None:
        """A C-collector just counted ``sigma`` / ``tau`` signers over ``signed``."""
        config = self.config
        if config.fast_path_enabled and not slot.fast_proof_sent and sigma >= config.sigma_threshold:
            self._send_full_commit_proof(slot, signed)
        # Not ``elif``: a σ combine a forger spoiled must not hold τ back.
        if tau >= config.tau_threshold and not slot.prepare_sent:
            if not config.fast_path_enabled:
                self._send_prepare(slot, signed)
            elif slot.fast_path_timer is None and not slot.fast_proof_sent:
                if self._slow_streak >= self.DEGRADED_AFTER:
                    # σ shares keep arriving; the branch above still sends the
                    # fast proof if they complete, which is how the streak ends.
                    self.stats.sigma_waits_skipped += 1
                    self._send_prepare(slot, signed)
                else:
                    slot.fast_path_timer = self.set_timer(
                        config.fast_path_timeout, self._on_fast_path_timeout, slot.sequence, signed
                    )

    def _on_fast_path_timeout(self, sequence: int, signed: Tuple) -> None:
        slot = self.log.peek(sequence)
        if slot is None:
            return
        slot.fast_path_timer = None
        if slot.fast_proof_sent or slot.prepare_sent or slot.committed:
            return
        if len(slot.tau_shares.votes(signed)) >= self.config.tau_threshold:
            self._send_prepare(slot, signed)

    def _send_full_commit_proof(self, slot: SlotState, signed: Tuple) -> None:
        proof = self._combine(slot.sigma_shares, self.keys.sigma, signed)
        if proof is None:
            return
        slot.fast_proof_sent = True
        if slot.fast_path_timer is not None:
            self.cancel_timer(slot.fast_path_timer)
            slot.fast_path_timer = None
        _, sequence, view, digest = signed
        self._broadcast(FullCommitProof(sequence=sequence, view=view, digest=digest, sigma_signature=proof))

    def _send_prepare(self, slot: SlotState, signed: Tuple) -> None:
        certificate = self._combine(slot.tau_shares, self.keys.tau, signed)
        if certificate is None:
            return
        slot.prepare_sent = True
        _, sequence, view, digest = signed
        self._broadcast(Prepare(sequence=sequence, view=view, digest=digest, tau_signature=certificate))

    def _on_full_commit_proof(self, message: FullCommitProof, src: int) -> None:
        slot = self.log.slot(message.sequence)
        if slot.committed:
            return
        sign_message = ("sign", message.sequence, message.view, message.digest)
        if not self.keys.sigma.verify_message(message.sigma_signature, sign_message):
            return
        slot.commit_proof = message.sigma_signature
        slot.digest = slot.digest or message.digest
        self._mark_committed(slot, fast=True)

    # ==================================================================
    # Linear-PBFT fallback: prepare -> commit -> full-commit-proof-slow
    # ==================================================================
    def _on_prepare(self, message: Prepare, src: int) -> None:
        if message.view != self.view:
            return
        slot = self.log.slot(message.sequence)
        if slot.commit_sent or slot.committed:
            return
        sign_message = ("sign", message.sequence, message.view, message.digest)
        if not self.keys.tau.verify_message(message.tau_signature, sign_message):
            return
        slot.prepare_certificate = message.tau_signature
        slot.prepare_certificate_view = message.view
        slot.commit_sent = True
        commit_message = ("commit", message.sequence, message.view, message.digest)
        share = self.keys.tau.sign_share(self.node_id, commit_message)
        self.charge_cpu(self.costs.bls_sign_share)
        commit = Commit(
            sequence=message.sequence,
            view=message.view,
            replica_id=self.node_id,
            digest=message.digest,
            tau_share_on_tau=share,
        )
        for collector in self._c_collectors(message.sequence, message.view):
            self._send(collector, commit)

    def _on_commit(self, message: Commit, src: int) -> None:
        if message.view != self.view:
            return
        if not self._is_c_collector(message.sequence, message.view):
            return
        slot = self.log.slot(message.sequence)
        if slot.slow_proof_sent:
            return
        # Only shares over this collector's own digest for the slot count,
        # whatever digest the sender's header names.
        signed = ("commit", message.sequence, message.view, slot.digest)
        count = self._file(slot.commit_shares, message.tau_share_on_tau, signed, src)
        if count >= self.config.tau_threshold:
            proof = self._combine(slot.commit_shares, self.keys.tau, signed)
            if proof is not None:
                slot.slow_proof_sent = True
                self._broadcast(
                    FullCommitProofSlow(
                        sequence=message.sequence, view=message.view, digest=slot.digest, tau_tau_signature=proof
                    )
                )

    def _on_full_commit_proof_slow(self, message: FullCommitProofSlow, src: int) -> None:
        slot = self.log.slot(message.sequence)
        if slot.committed:
            return
        commit_message = ("commit", message.sequence, message.view, message.digest)
        if not self.keys.tau.verify_message(message.tau_tau_signature, commit_message):
            return
        slot.commit_proof_slow = message.tau_tau_signature
        slot.digest = slot.digest or message.digest
        self._mark_committed(slot, fast=False)

    # ==================================================================
    # Commit, execution, acknowledgement
    # ==================================================================
    def _mark_committed(self, slot: SlotState, fast: bool) -> None:
        if slot.committed:
            return
        slot.committed = True
        slot.committed_via_fast_path = fast
        if slot.fast_path_timer is not None:
            self.cancel_timer(slot.fast_path_timer)
            slot.fast_path_timer = None
        self.stats.blocks_committed += 1
        if fast:
            self.stats.blocks_committed_fast += 1
            self._slow_streak = 0
            # Section V-F: committing in the fast path advances the stable point.
            implied_stable = slot.sequence - self.config.active_window
            if implied_stable > self.last_stable:
                self.last_stable = implied_stable
        else:
            self.stats.blocks_committed_slow += 1
            self._slow_streak += 1
        if slot.pre_prepare is None and slot.sequence > self.last_executed + self.config.active_window:
            self._request_state_transfer()
        self._try_execute()

    def _after_execute(self, slot: SlotState) -> None:
        """Acknowledge an executed block: π share to the E-collectors, or —
        with ingredient 3 off — f+1 replies and the periodic checkpoint.  A
        degraded replica does both: the slot's E-collector may be dead."""
        if self.config.execution_collectors_enabled:
            self._send_sign_state(slot)
            self._maybe_send_execute_acks(slot.sequence)
            if self._slow_streak >= self.DEGRADED_AFTER:
                self.stats.blocks_replied_directly += 1
                self._send_block_replies(slot)
        else:
            self._send_block_replies(slot)
            self._maybe_send_checkpoint(slot)
        self._answer_waiting_direct_replies(slot)

    # ------------------------------------------------------------------
    # Execution collectors (ingredient 3)
    # ------------------------------------------------------------------
    def _send_sign_state(self, slot: SlotState) -> None:
        sign_message = ("state", slot.sequence, slot.state_digest)
        share = self.keys.pi.sign_share(self.node_id, sign_message)
        self.charge_cpu(self.costs.bls_sign_share)
        message = SignState(
            sequence=slot.sequence,
            replica_id=self.node_id,
            state_digest=slot.state_digest,
            pi_share=share,
        )
        for collector in self._e_collectors(slot.sequence):
            self._send(collector, message)

    def _on_sign_state(self, message: SignState, src: int) -> None:
        if not self._is_e_collector(message.sequence):
            return
        slot = self.log.slot(message.sequence)
        signed = ("state", message.sequence, message.state_digest)
        count = self._file(slot.sign_state_shares, message.pi_share, signed, src)
        if count >= self.config.pi_threshold and slot.execute_proof is None:
            slot.execute_proof = proof = self._combine(slot.sign_state_shares, self.keys.pi, signed)
            if proof is not None:
                self._broadcast(
                    FullExecuteProof(
                        sequence=message.sequence, state_digest=message.state_digest, pi_signature=proof
                    )
                )
        self._maybe_send_execute_acks(message.sequence)

    def _on_full_execute_proof(self, message: FullExecuteProof, src: int) -> None:
        slot = self.log.slot(message.sequence)
        sign_message = ("state", message.sequence, message.state_digest)
        if not self.keys.pi.verify_message(message.pi_signature, sign_message):
            return
        if slot.execute_proof is None:
            slot.execute_proof = message.pi_signature
        self._advance_stable(message.sequence)
        if self.last_executed + self.config.state_transfer_lag < message.sequence:
            self._request_state_transfer(hint=src)
        self._maybe_send_execute_acks(message.sequence)

    def _maybe_send_execute_acks(self, sequence: int) -> None:
        """E-collector: after both the π proof and local execution are ready,
        send each client its single execute-ack with a Merkle proof."""
        if not self._is_e_collector(sequence):
            return
        slot = self.log.peek(sequence)
        if slot is None or slot.acks_sent or slot.execute_proof is None or not slot.executed:
            return
        if slot.pre_prepare is None:
            return
        slot.acks_sent = True
        reply_values = block_reply_values(
            slot.pre_prepare, slot.execution_results, slot.state_digest
        )
        position = 0
        for request, values in zip(slot.pre_prepare.requests, reply_values):
            count = len(request.operations)
            proof = None
            if count > 0:
                self.charge_cpu(self.costs.merkle_proof_per_level * 20)
                proof = self.service.prove(sequence, position)
            ack = ExecuteAck(
                sequence=sequence,
                client_id=request.client_id,
                timestamp=request.timestamp,
                first_position=position,
                values=values,
                state_digest=slot.state_digest or "",
                pi_signature=slot.execute_proof,
                proof=proof,
            )
            self._send_to_client(request.client_id, ack)
            position += count

    # ------------------------------------------------------------------
    # PBFT-style f+1 replies (the runtime's ``_send_block_replies`` when
    # ingredient 3 is disabled; ``_send_direct_reply`` as the client's retry
    # fallback)
    # ------------------------------------------------------------------
    def _answer_waiting_direct_replies(self, slot: SlotState) -> None:
        for request in slot.pre_prepare.requests:
            if request.request_id in self._direct_reply_waiting:
                del self._direct_reply_waiting[request.request_id]
                self._send_direct_reply(request.client_id, request.timestamp)

    # ==================================================================
    # Checkpoints, garbage collection, stable point
    # ==================================================================
    def _maybe_send_checkpoint(self, slot: SlotState) -> None:
        if slot.sequence % self.config.checkpoint_every != 0:
            return
        sign_message = ("checkpoint", slot.sequence, slot.state_digest)
        share = self.keys.pi.sign_share(self.node_id, sign_message)
        self.charge_cpu(self.costs.bls_sign_share)
        message = CheckpointMsg(
            sequence=slot.sequence,
            replica_id=self.node_id,
            state_digest=slot.state_digest or "",
            pi_share=share,
        )
        self._broadcast(message)

    def _on_checkpoint(self, message: CheckpointMsg, src: int) -> None:
        signed = ("checkpoint", message.sequence, message.state_digest)
        shares = self._checkpoint_shares.setdefault(message.sequence, Tally())
        count = self._file(shares, message.pi_share, signed, src)
        if count >= self.config.pi_threshold and message.sequence > self.last_stable:
            proof = self._combine(shares, self.keys.pi, signed)
            if proof is not None:
                self._broadcast(
                    StableCheckpoint(
                        sequence=message.sequence, state_digest=message.state_digest, pi_signature=proof
                    )
                )
                self._advance_stable(message.sequence)

    def _on_stable_checkpoint(self, message: StableCheckpoint, src: int) -> None:
        sign_message = ("checkpoint", message.sequence, message.state_digest)
        if not self.keys.pi.verify_message(message.pi_signature, sign_message):
            return
        self._advance_stable(message.sequence)
        if self.last_executed + self.config.state_transfer_lag < message.sequence:
            self._request_state_transfer(hint=src)

    def _advance_stable(self, sequence: int) -> None:
        if sequence > self.last_stable:
            self.last_stable = sequence
        collect_up_to = min(self.last_stable, self.last_executed) - self.config.window
        if collect_up_to > 0:
            self.log.garbage_collect(collect_up_to)
            stale_checkpoints = [s for s in self._checkpoint_shares if s <= collect_up_to]
            for stale in stale_checkpoints:
                del self._checkpoint_shares[stale]
            for key in [key for key in self._valid_prefix if key[1][1] <= collect_up_to]:
                del self._valid_prefix[key]  # key[1] is the signed tuple, [1] its sequence

    # ==================================================================
    # View change (Section V-G)
    # ==================================================================
    def build_view_change(self, new_view: int) -> ViewChange:
        """Construct this replica's view-change message for ``new_view``."""
        slots: List[SlotEvidence] = []
        top = self.last_stable + self.config.window
        for slot in self.log.slots():
            if slot.sequence <= self.last_stable or slot.sequence > top:
                continue
            evidence = self._slot_evidence(slot)
            if evidence is not None:
                slots.append(evidence)
        stable_slot = self.log.peek(self.last_stable)
        stable_proof = stable_slot.execute_proof if stable_slot is not None else None
        return ViewChange(
            new_view=new_view,
            replica_id=self.node_id,
            last_stable=self.last_stable,
            stable_proof=stable_proof,
            slots=tuple(slots),
        )

    def _slot_evidence(self, slot: SlotState) -> Optional[SlotEvidence]:
        digest = slot.digest
        # Linear-PBFT mode evidence.
        if slot.commit_proof_slow is not None:
            lm = (LM_COMMIT_PROOF, slot.commit_proof_slow, digest)
        elif slot.prepare_certificate is not None:
            lm = (LM_PREPARED, slot.prepare_certificate, slot.prepare_certificate_view, digest)
        else:
            lm = (LM_NO_COMMIT,)
        # Fast mode evidence.
        if slot.commit_proof is not None:
            fm = (FM_FAST_PROOF, slot.commit_proof, digest)
        elif slot.pre_prepare is not None:
            sign_message = ("sign", slot.sequence, slot.pre_prepare_view, digest)
            share = self.keys.sigma.sign_share(self.node_id, sign_message)
            fm = (FM_PRE_PREPARED, share, slot.pre_prepare_view, digest)
        else:
            fm = (FM_NO_PRE_PREPARE,)
        if lm[0] == LM_NO_COMMIT and fm[0] == FM_NO_PRE_PREPARE:
            return None
        requests_by_digest: Tuple = ()
        if slot.pre_prepare is not None and digest is not None:
            requests_by_digest = ((digest, slot.pre_prepare.requests),)
        return SlotEvidence(
            sequence=slot.sequence, lm=lm, fm=fm, requests_by_digest=requests_by_digest
        )

    def _on_new_view(self, message: NewView, src: int) -> None:
        if message.view <= self.view:
            return
        if primary_of_view(message.view, self._n) != src:
            return
        if len(message.view_changes) < self.config.view_change_quorum:
            return
        try:
            plan = compute_new_view_plan(
                message.view,
                message.view_changes,
                self.config,
                sigma=self.keys.sigma,
                tau=self.keys.tau,
                pi=self.keys.pi,
            )
        except ValueError:
            return
        self._enter_view(message.view, plan)

    def _enter_view(self, new_view: int, plan: NewViewPlan) -> None:
        self.view = new_view
        self._view_change_attempts = 0
        # A view change is evidence of a failed replica, and at c = 0 one
        # failure denies the fast path: start degraded (a fast commit ends it).
        self._slow_streak = max(self._slow_streak, self.DEGRADED_AFTER)
        if self._view_change_timer is not None:
            self.cancel_timer(self._view_change_timer)
            self._view_change_timer = None
        if self._batch_timer is not None:
            self.cancel_timer(self._batch_timer)
            self._batch_timer = None
        for view in [view for view in self._view_changes if view <= new_view]:
            del self._view_changes[view]

        max_decided = plan.last_stable
        for sequence, decision in sorted(plan.decisions.items()):
            slot = self.log.slot(sequence)
            max_decided = max(max_decided, sequence)
            if decision.action == ACTION_COMMIT:
                if decision.requests is not None and slot.pre_prepare is None:
                    slot.pre_prepare = PrePrepare(
                        sequence=sequence,
                        view=new_view,
                        requests=decision.requests,
                        digest=decision.digest or "",
                        primary_signature=None,
                    )
                    slot.pre_prepare_view = new_view
                slot.digest = decision.digest or slot.digest
                if decision.via_fast_path:
                    slot.commit_proof = decision.certificate
                else:
                    slot.commit_proof_slow = decision.certificate
                if not slot.committed:
                    self._mark_committed(slot, fast=decision.via_fast_path)
            elif decision.action == ACTION_ADOPT and self.is_primary:
                requests = decision.requests or ()
                self._repropose(sequence, requests)
            elif decision.action == ACTION_NOOP and self.is_primary:
                self._repropose(sequence, ())

        if self.is_primary:
            self.next_sequence = max(self.next_sequence, max_decided + 1)
        self._view_entered({
            request.request_id for decision in plan.decisions.values()
            for request in decision.requests or ()
        })
        self._try_execute()

    def _repropose(self, sequence: int, requests: Tuple[ClientRequest, ...]) -> None:
        """New primary re-proposes an adopted value (or a no-op) in the new view."""
        self.charge_cpu(self.costs.hash_op + self.costs.rsa_sign)
        self._broadcast(self._signed_pre_prepare(sequence, requests))

    # Runtime hooks where SBFT differs (see repro.core.runtime.Replica).
    def _new_view(self, view: int, view_changes: Tuple[ViewChange, ...]) -> NewView:
        self.charge_cpu(self.costs.bls_verify_combined * len(view_changes))
        return NewView(view=view, view_changes=view_changes)

    def _after_batch_timeout(self) -> None:
        # Re-arm the batch timer when the flush was blocked by a full window,
        # so the queue is re-examined once the stable point moves.
        self._maybe_propose()

    def _execution_proof(self, slot: SlotState) -> Optional[Any]:
        return slot.execute_proof

    def _forget_timer_handles(self) -> None:
        super()._forget_timer_handles()
        for slot in self.log.slots():
            slot.fast_path_timer = None
