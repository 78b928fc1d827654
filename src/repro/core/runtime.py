"""The replica runtime both agreement protocols run on.

:class:`Replica` is everything a replica does that does not depend on *how*
a block gets committed: client intake and deduplication, the primary's
batching/propose loop, in-order execution with reply recording, cache-only
answers to retransmissions, the state-transfer pair, ``rejoin``, the
view-change timer, message dispatch and the send helpers.
:class:`repro.core.replica.SBFTReplica` and
:class:`repro.pbft.replica.PBFTReplica` add their agreement phases,
checkpoint / stable-point rule, view-change evidence and new-view handling —
so the paper's SBFT-vs-PBFT comparison differs in those and nothing else.

Subclass contract: after ``super().__init__`` set ``log`` (a
:class:`~repro.core.log.ReplicaLog` of the protocol's slot type), ``stats``
and the complete ``_handlers`` / ``_cost_table`` dict literals; define a
two-line ``on_message`` of your own (the benchmark counts handled messages
per protocol by that method's code object) and ``_new_view_quorum``;
implement ``build_view_change``, ``_new_view`` and ``_after_execute``;
override the hooks at the bottom of the class where the protocol differs.
docs/architecture.md ("Replica runtime") lists every such point and why it
exists.

Cost accounting: message verification cost is charged *before* a message is
processed (so a saturated replica's queue grows and latency rises), while
signing / combining costs are charged to the CPU inline (so they bound
throughput).  Block execution runs on a second core of its own
(``exec_cpu``, one block at a time in sequence order), so a long block
delays the next block but not the messages that arrive while it runs
(a modelling assumption, see :class:`repro.sim.process.CPUModel`).  Costs
come from :class:`repro.crypto.costs.CryptoCosts`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.config import SBFTConfig
from repro.core.log import Tally
from repro.core.messages import (
    ClientReply,
    ClientRequest,
    PrePrepare,
    StateTransferRequest,
    StateTransferResponse,
    ViewNotice,
)
from repro.core.reply_cache import ClientReplyTracker
from repro.crypto.costs import CryptoCosts
from repro.crypto.hashing import block_digest
from repro.crypto.signatures import SigningKey, encode
from repro.services.interface import AuthenticatedService, BlockOperations, Operation
from repro.sim.events import Simulator
from repro.sim.network import Network
from repro.sim.process import CPUModel, Process


def block_execution_plan(pre_prepare, service, costs) -> Tuple[BlockOperations, float]:
    """Flattened operations and total simulated execution cost of a block.

    The same frozen ``PrePrepare`` object reaches every replica, and the cost
    of a block is a pure function of its operations and the cluster's
    (service type, cost model) pair — so the plan is stashed on the message
    instance and computed once per cluster instead of twice per replica.
    The guard re-computes if a differently-configured replica ever shares the
    message.
    """
    memo = pre_prepare._exec_plan
    service_type = type(service)
    if memo is not None and memo[0] is service_type and memo[1] is costs:
        return memo[2], memo[3]
    flattened: List[Operation] = []
    for request in pre_prepare.requests:
        flattened.extend(request.operations)
    cost = sum(service.execution_cost(op) for op in flattened)
    cost += costs.hash_op * max(1, len(flattened))
    # Freeze before stashing: the stashed plan is shared by every replica
    # that sees this message, so a consumer mutating its copy must not be
    # able to corrupt the cluster-wide entry.
    operations = BlockOperations(flattened)
    object.__setattr__(pre_prepare, "_exec_plan", (service_type, costs, operations, cost))
    return operations, cost


def pre_prepare_expected_digest(pre_prepare) -> str:
    """The digest the proposer *should* have attached to this pre-prepare.

    A pure function of the frozen message fields (sequence, view, request
    ids), so it is computed once per cluster and stashed on the shared
    message object.  Every replica still compares the stashed value against
    ``pre_prepare.digest`` independently — a forged digest field is rejected
    by all of them, exactly as with per-replica recomputation.
    """
    digest = pre_prepare._expected_digest
    if digest is None:
        digest = block_digest(
            pre_prepare.sequence,
            pre_prepare.view,
            [r.request_id for r in pre_prepare.requests],
        )
        object.__setattr__(pre_prepare, "_expected_digest", digest)
    return digest


def block_reply_values(pre_prepare, execution_results, state_digest) -> Tuple[Tuple, ...]:
    """Per-request reply-value tuples for one executed block.

    Like :func:`block_execution_plan`, the same frozen ``PrePrepare`` reaches
    every replica — and the post-execution state digest commits to every
    result value (the journal leaves hash them), so two replicas at the same
    digest provably computed the same values.  The partition is therefore
    stashed on the message guarded by the digest: built once per cluster,
    reused by the n-1 peers (and by the several reply/ack paths of one
    replica).  A replica at a different digest misses the guard and rebuilds,
    which is exactly the old per-replica cost.
    """
    memo = pre_prepare._reply_values
    if memo is not None and memo[0] == state_digest:
        return memo[1]
    position = 0
    values_per_request = []
    for request in pre_prepare.requests:
        count = len(request.operations)
        values_per_request.append(
            tuple(result.value for result in execution_results[position : position + count])
        )
        position += count
    values_per_request = tuple(values_per_request)
    object.__setattr__(pre_prepare, "_reply_values", (state_digest, values_per_request))
    return values_per_request


def block_reply_bodies(pre_prepare, reply_values, state_digest) -> Tuple[Tuple[bytes, Any], ...]:
    """``signatures.encode`` of each request's reply: every replica signs the
    same bodies, so they are stashed beside ``_reply_values``, same guard."""
    memo = pre_prepare._reply_bodies
    if memo is None or memo[0] != state_digest:
        memo = (state_digest, tuple(
            encode(("reply", request.client_id, request.timestamp, values))
            for request, values in zip(pre_prepare.requests, reply_values)))
        object.__setattr__(pre_prepare, "_reply_bodies", memo)
    return memo[1]


class Replica(Process):
    """Protocol-independent replica runtime (see the module docstring)."""

    #: The view-change timeout is multiplied by this per failed attempt
    #: (SBFT doubles it; the PBFT baseline keeps it constant).
    VIEW_CHANGE_BACKOFF = 1

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: int,
        name: str,
        config: SBFTConfig,
        signing_key: SigningKey,
        service: AuthenticatedService,
        costs: CryptoCosts,
        client_directory: Optional[Dict[int, int]],
    ):
        super().__init__(sim, node_id, name=name)
        self.network = network
        self.config = config
        self.signing_key = signing_key
        self.service = service
        self.costs = costs
        # Maps client ids to network node ids (clients live on separate nodes).
        self.client_directory = client_directory if client_directory is not None else {}

        # Deployment size, read once (the config is frozen and ``n`` is a
        # derived property consulted on every primary/role lookup).
        self._n = config.n

        # Protocol state.
        self.view = 0
        self.last_executed = 0
        self.last_stable = 0
        self.next_sequence = 1

        # Primary state.  ``_pending_request_ids``: requests queued or
        # proposed in this view that have not executed (a copy relayed late
        # is not queued twice).
        self._pending_requests: List[ClientRequest] = []
        self._pending_request_ids: set = set()
        self._batch_timer: Optional[int] = None

        # Execution / reply state.  Blocks execute on their own core, one at a
        # time; ``_executing`` names the sequence in flight on it (None: idle).
        # Clients pipeline requests as a sliding window
        # (config.client_max_outstanding), so executed-request tracking and
        # reply retention follow the exact per-timestamp rules of
        # ClientReplyTracker (see repro.core.reply_cache for the window
        # invariant that makes the bounded cache sufficient).
        self.exec_cpu = CPUModel(sim)
        self.cores = (self.cpu, self.exec_cpu)
        self._executing: Optional[int] = None
        self._replies = ClientReplyTracker(config.client_max_outstanding)
        self._direct_reply_waiting: Dict[Tuple[int, int], ClientRequest] = {}

        # View-change state: the messages received per proposed view, and the
        # timer (the evidence a view change carries is the protocol's business).
        self._view_changes = Tally()
        self._view_change_timer: Optional[int] = None
        self._view_change_attempts = 0
        self._view_change_sent_for: set = set()
        self._new_view_sent_for: set = set()
        self._request_first_seen: Dict[Tuple[int, int], float] = {}
        # Pre-prepares from the primary of a view not entered yet, the first
        # per ``(view, sequence)``: they can overtake its new-view message,
        # and are taken once the view is.
        self._early_pre_prepares: Dict[Tuple[int, int], Tuple[PrePrepare, int]] = {}

        # State-transfer throttle (one outstanding request per lag position).
        self._state_transfer_seq = -1
        self._state_transfer_at = float("-inf")

        # Called as ``observer(node_id, sequence, block_digest)`` after each
        # block executes (None = no observer).  ``Cluster`` points it at its
        # agreement monitor, which compares the *block* digest across
        # replicas: it is the decision at that sequence, while the state
        # digest also depends on every block executed before it.
        self.execution_observer: Optional[Any] = None

        # Cached broadcast destination list (the peer set is fixed for the
        # lifetime of the cluster; rebuilding a range per message was pure
        # hot-path garbage at n=193).
        self._peers_all: Tuple[int, ...] = tuple(range(self._n))

    # ==================================================================
    # Roles and rejoin (the ``restart`` fault)
    # ==================================================================
    @property
    def primary(self) -> int:
        """Round-robin primary of the current view (Section V-B)."""
        return self.view % self._n

    @property
    def is_primary(self) -> bool:
        return self.view % self._n == self.node_id

    def rejoin(self) -> None:
        """Recover from a crash and re-sync via the state-transfer machinery.

        ``crash()`` dropped every timer and any in-flight CPU work (its
        completion, ``_dispatch`` or ``Process._computed``, no-ops on a crashed
        node), so all timer handles and the execution-in-progress flag are
        stale and must be cleared.  (If a block is still on the execution
        core when the replica restarts and the restart starts that same
        block again, whichever completion comes first finishes it and the
        other is stale; any other leftover completion is stale.)  The
        replica then asks a peer for a state snapshot; if the cluster made no
        progress while it was down, the request simply goes unanswered and
        the replica catches up through the normal protocol flow (commits,
        execute proofs and checkpoints re-trigger state transfer when it lags
        too far).
        """
        if not self.crashed:
            return
        self.recover()
        self._executing = None
        self._forget_timer_handles()
        self._request_state_transfer()
        self._try_execute()

    # ==================================================================
    # Sending helpers
    # ==================================================================
    def _send(self, dst: int, message: Any) -> None:
        if self.crashed:
            return
        self.network.send(self.node_id, dst, message)

    def _broadcast(self, message: Any) -> None:
        if self.crashed:
            return
        self.network.broadcast_bulk(self.node_id, message, self._peers_all)

    def _send_to_client(self, client_id: int, message: Any) -> None:
        node = self.client_directory.get(client_id)
        if node is not None:
            self._send(node, message)

    # ==================================================================
    # Message dispatch (``on_message`` itself lives in each protocol class)
    # ==================================================================
    def _message_cost(self, message: Any, src: int) -> float:
        """Verification cost charged before processing a message; nothing
        for one this replica sent itself (it still queues on the core)."""
        if src == self.node_id:
            return 0.0
        cost_fn = self._cost_table.get(type(message))
        if cost_fn is None:
            return self.costs.hash_op
        return cost_fn(message)

    def _dispatch(self, message: Any, src: int) -> None:
        # The CPU completion of ``on_message``: the replica may have crashed
        # while the message's verification cost was being charged.
        if self.crashed:
            return
        handler = self._handlers.get(type(message))
        if handler is not None:
            handler(message, src)

    # ==================================================================
    # Client requests and primary batching
    # ==================================================================
    def _on_client_request(self, request: ClientRequest, src: int) -> None:
        request_id = request.request_id
        if self._replies.executed(*request_id):
            # Retransmission of an executed request: reply directly (f+1 path).
            self._send_direct_reply(request.client_id, request.timestamp)
            return

        self._request_first_seen.setdefault(request_id, self.sim.now)
        if not self.is_primary:
            if self._forwards_request_from(src):
                # Keep the request until it executes: its client is answered
                # directly if it asked every replica (its retry path), and a
                # new primary gets it if this one never orders it.  Make sure
                # a view change happens if the primary never orders it.
                self._direct_reply_waiting[request_id] = request
                self._send(self.primary, request)
                self._ensure_view_change_timer()
            return
        if request_id in self._pending_request_ids:
            return
        self._pending_request_ids.add(request_id)
        self._pending_requests.append(request)
        self._maybe_propose()

    def _maybe_propose(self) -> None:
        if not self.is_primary or self.crashed or not self._pending_requests:
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
        self._after_batch_timeout()

    def _can_propose(self) -> bool:
        """Section V-F: at most ``win/4`` blocks in flight, none past ``ls + win``."""
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

        sequence = self.next_sequence
        self.next_sequence += 1
        self.charge_cpu(self.costs.hash_op + self.costs.rsa_sign)
        message = self._signed_pre_prepare(sequence, batch)
        self.stats.blocks_proposed += 1
        self._broadcast(message)

        # Keep draining the backlog.
        if self._pending_requests:
            self._maybe_propose()

    def _signed_pre_prepare(self, sequence: int, requests: Tuple[ClientRequest, ...]) -> PrePrepare:
        """A pre-prepare for ``requests`` in the current view, signed as primary.

        Callers charge the CPU themselves: fresh proposals and SBFT
        re-proposals pay a hash and a signature, the PBFT baseline's new-view
        re-proposals only the signature.
        """
        digest = block_digest(sequence, self.view, [r.request_id for r in requests])
        signature = self.signing_key.sign(("pre-prepare", sequence, self.view, digest))
        return PrePrepare(
            sequence=sequence,
            view=self.view,
            requests=requests,
            digest=digest,
            primary_signature=signature,
        )

    # ==================================================================
    # Execution and replies
    # ==================================================================
    def _try_execute(self) -> None:
        if self._executing is not None or self.crashed:
            return
        slot = self.log.peek(self.last_executed + 1)
        if slot is None or not slot.committed or slot.pre_prepare is None or slot.executed:
            return
        _operations, cost = block_execution_plan(slot.pre_prepare, self.service, self.costs)
        self._executing = slot.sequence
        self.exec_cpu.execute(cost, self._computed, self._finish_execution, (slot.sequence,))

    def _finish_execution(self, sequence: int) -> None:
        if self._executing != sequence:
            # Stale: a state transfer (or a restart) moved past this block
            # while it ran, and started whatever runs next itself.
            return
        self._executing = None
        slot = self.log.peek(sequence)
        if (
            slot is None
            or slot.executed
            or not slot.committed
            or slot.pre_prepare is None
            or sequence != self.last_executed + 1
        ):
            self._try_execute()
            return

        pre_prepare = slot.pre_prepare
        operations, _cost = block_execution_plan(pre_prepare, self.service, self.costs)
        slot.execution_results = self.service.execute_block(sequence, operations)
        slot.executed = True
        self.last_executed = sequence
        self.stats.blocks_executed += 1
        slot.state_digest = self.service.digest()

        if self.execution_observer is not None:
            self.execution_observer(self.node_id, sequence, pre_prepare.digest)

        # Remember recent replies per client (deduplication + retransmits) and
        # stop timing the requests that just executed.
        requests = pre_prepare.requests
        reply_values = block_reply_values(pre_prepare, slot.execution_results, slot.state_digest)
        self._replies.record_block(sequence, requests, reply_values)
        for request in requests:
            self._request_first_seen.pop(request.request_id, None)
            self._pending_request_ids.discard(request.request_id)
        if not self._request_first_seen and self._view_change_timer is not None:
            self.cancel_timer(self._view_change_timer)
            self._view_change_timer = None
            self._view_change_attempts = 0

        self._after_execute(slot)

        if self.is_primary:
            self._maybe_propose()
        self._try_execute()

    def _signed_reply(
        self, sequence: int, client_id: int, timestamp: int, values: Tuple, encoded: Any = None
    ) -> ClientReply:
        """This replica's signed f+1-path reply (charges the signature)."""
        self.charge_cpu(self.costs.rsa_sign)
        signature = self.signing_key.sign(("reply", client_id, timestamp, values), encoded=encoded)
        return ClientReply(
            sequence=sequence,
            client_id=client_id,
            timestamp=timestamp,
            values=values,
            replica_id=self.node_id,
            signature=signature,
        )

    def _send_block_replies(self, slot: Any) -> None:
        """PBFT-style replies: one signed reply per request of an executed block."""
        reply_values = block_reply_values(slot.pre_prepare, slot.execution_results, slot.state_digest)
        bodies = block_reply_bodies(slot.pre_prepare, reply_values, slot.state_digest)
        for request, values, body in zip(slot.pre_prepare.requests, reply_values, bodies):
            reply = self._signed_reply(slot.sequence, request.client_id, request.timestamp, values, body)
            self._send_to_client(request.client_id, reply)

    def _send_direct_reply(self, client_id: int, timestamp: int) -> None:
        """Answer a retransmission of an executed request with its own reply.

        Only answerable from the reply cache: a replica that merely knows the
        request executed (state transfer) must stay silent — fabricating an
        empty-value reply could combine with other fabricated replies into an
        f+1 quorum of wrong values.  The client keeps retrying and is answered
        by replicas that still hold the real values.
        """
        entry = self._replies.reply(client_id, timestamp)
        if entry is None:
            return
        sequence, values = entry
        self._send_to_client(client_id, self._signed_reply(sequence, client_id, timestamp, values))

    # ==================================================================
    # State transfer (Section VIII; follows the PBFT mechanism)
    # ==================================================================
    def _request_state_transfer(self, hint: Optional[int] = None) -> None:
        # Throttle: while lagging, every peer's checkpoint/execute-proof
        # re-triggers this; without a guard each would draw a full snapshot
        # response, inflating the very traffic counters the benchmarks
        # measure.  Re-request only after progress or a retry window.
        if (
            self._state_transfer_seq == self.last_executed
            and self.sim.now - self._state_transfer_at < self.config.client_retry_timeout
        ):
            return
        target = hint
        if target is None or target == self.node_id:
            candidates = [r for r in range(self._n) if r != self.node_id]
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
        slot = self.log.peek(self.last_executed)
        response = StateTransferResponse(
            up_to_sequence=self.last_executed,
            state_digest=(slot.state_digest or "") if slot is not None else "",
            snapshot=self.service.snapshot(),
            stable_proof=self._execution_proof(slot) if slot is not None else None,
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
        self._executing = None
        self._try_execute()

    # ==================================================================
    # View-change timer (what a view change carries is the protocol's)
    # ==================================================================
    def _view_change_timeout(self) -> float:
        return self.config.view_change_timeout * (self.VIEW_CHANGE_BACKOFF**self._view_change_attempts)

    def _ensure_view_change_timer(self) -> None:
        if self._view_change_timer is None and not self.crashed:
            self._view_change_timer = self.set_timer(
                self._view_change_timeout(), self._on_view_change_timeout
            )

    def _on_view_change_timeout(self) -> None:
        self._view_change_timer = None
        if not self._request_first_seen:
            return
        # Only suspect the primary if some request has actually been waiting a
        # full timeout (progress on other requests resets nothing — the timer
        # measures the oldest outstanding request, as in PBFT).
        oldest = min(self._request_first_seen.values())
        remaining = oldest + self._view_change_timeout() - self.sim.now
        if remaining > 0:
            self._view_change_timer = self.set_timer(remaining, self._on_view_change_timeout)
            return
        # Escalate past every view already asked for: the primary of the
        # last one may be down too (a repeated request would be a no-op).
        self._view_change_attempts += 1
        self._start_view_change(max([self.view, *self._view_change_sent_for]) + 1)

    def _start_view_change(self, new_view: int) -> None:
        if new_view <= self.view or new_view in self._view_change_sent_for:
            return
        self._view_change_sent_for.add(new_view)
        self.stats.view_changes += 1
        # Broadcast rather than sent to the new primary alone, so that f+1
        # observations can trigger laggards to join (liveness rule 2).
        self._broadcast(self.build_view_change(new_view))
        self._ensure_view_change_timer()

    def _on_view_change(self, message: Any, src: int) -> None:
        new_view = message.new_view
        if new_view <= self.view:
            return
        self._view_changes.add(new_view, message.replica_id, message)
        view_changes = self._view_changes.votes(new_view)
        # Liveness rule: join the view change once f+1 replicas want it.
        if len(view_changes) >= self.config.f + 1:
            self._start_view_change(new_view)
        # The new view's primary announces it once it holds a quorum of them.
        if (
            new_view % self._n == self.node_id
            and len(view_changes) >= self._new_view_quorum
            and new_view not in self._new_view_sent_for
        ):
            self._new_view_sent_for.add(new_view)
            selected = tuple(view_changes.values())[: self._new_view_quorum]
            self._broadcast(self._new_view(new_view, selected))

    def _not_this_view(self, message: PrePrepare, src: int) -> bool:
        """Is the pre-prepare for another view?  One from the primary of a
        view this replica may enter next (the one after its own, or one it
        asked for) is kept for when it does, if inside the window: a future
        primary cannot make the buffer grow without bound."""
        view = message.view
        if view == self.view:
            return False
        if (
            view > self.view and src == view % self._n
            and (view == self.view + 1 or view in self._view_change_sent_for)
            and self.log.in_window(message.sequence, self.last_stable)
        ):
            self._early_pre_prepares.setdefault((view, message.sequence), (message, src))
        return True

    def _view_entered(self, reproposed: set) -> None:
        """The runtime's end of entering a view.  Requests this replica
        forwarded and nobody ordered go to the new primary, or into its
        queue if it is the primary, unless executed (then forgotten: a state
        transfer skips ``_after_execute``) or in ``reproposed`` (ids in the
        slots the new-view plan re-proposes).  ``_pending_request_ids``
        restarts as what the view queues or re-proposes.  Then the view's
        kept pre-prepares are handled, the primary proposes, and every client
        is told the view (one signature: ``ViewNotice``, core/client.py)."""
        self._view_change_sent_for = {v for v in self._view_change_sent_for if v > self.view}
        self._pending_request_ids = reproposed | {r.request_id for r in self._pending_requests}
        for request_id, request in list(self._direct_reply_waiting.items()):
            if self._replies.executed(*request_id):
                del self._direct_reply_waiting[request_id]
            elif request_id in self._pending_request_ids:
                continue
            elif self.is_primary:
                self._pending_request_ids.add(request_id)
                self._pending_requests.append(request)
            else:
                self._send(self.primary, request)
        early = self._early_pre_prepares
        self._early_pre_prepares = {key: entry for key, entry in early.items() if key[0] > self.view}
        for (view, _sequence), (message, src) in early.items():
            if view == self.view:
                self._on_pre_prepare(message, src)
        self._maybe_propose()
        self.charge_cpu(self.costs.rsa_sign)
        notice = ViewNotice(self.view, self.node_id, self.signing_key.sign(("view-notice", self.view)))
        for node in self.client_directory.values():
            self._send(node, notice)

    # ==================================================================
    # Protocol hooks (plus the attribute ``_new_view_quorum``: how many
    # view-change messages the new primary's announcement carries)
    # ==================================================================
    def build_view_change(self, new_view: int) -> Any:
        """Construct this replica's view-change message for ``new_view``."""
        raise NotImplementedError

    def _after_execute(self, slot: Any) -> None:
        """Protocol tail of an executed block: replies/acks and checkpointing."""
        raise NotImplementedError

    def _new_view(self, view: int, view_changes: Tuple[Any, ...]) -> Any:
        """The new primary's announcement of ``view`` (charges what checking
        the ``view_changes`` it carries costs)."""
        raise NotImplementedError

    def _forwards_request_from(self, src: int) -> bool:
        """Does a backup forward a request from ``src``?  Only one that came
        straight from a client: nothing is bounced back to the primary."""
        return src != self.primary and src != self.node_id

    def _after_batch_timeout(self) -> None:
        """Runs after the batch timer flushed (or failed to flush) the queue."""

    def _execution_proof(self, slot: Any) -> Optional[Any]:
        """Proof of the executed state at ``slot`` shipped with a snapshot."""
        return None

    def _forget_timer_handles(self) -> None:
        """Clear timer handles a crash left dangling (``rejoin``)."""
        self._batch_timer = None
        self._view_change_timer = None
        self._view_change_attempts = 0
