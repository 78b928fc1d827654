"""The SBFT client (Section V-A).

A client keeps a strictly monotone timestamp, sends each request to the
replica it believes is the primary, and in the common case accepts a single
``execute-ack`` message: it verifies the π(d) threshold signature over the
post-execution state digest and the Merkle proof that its operation executed
with the returned value.  If its timer expires it re-sends the request to all
replicas and falls back to the classic PBFT acknowledgement, waiting for
``f + 1`` matching replies, each verified against the signing key of the
replica it claims to come from (so one faulty replica counts once, whatever
ids it writes into its replies).

Clients can be *pipelined*: ``config.client_max_outstanding`` bounds how many
requests one client keeps in flight concurrently (the default of 1 reproduces
the classic closed-loop client one decision at a time).  Each in-flight
request carries its own retry timer and its own ``f + 1`` fallback tally, so a
straggling request does not head-of-line block the rest of the pipeline —
this is how the client-load sweep scales offered load without spawning one
simulated node per request.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.config import SBFTConfig
from repro.core.log import Tally
from repro.core.messages import ClientReply, ClientRequest, ExecuteAck
from repro.core.stats import ClientStats
from repro.crypto.costs import CryptoCosts, DEFAULT_COSTS
from repro.crypto.hashing import sha256_hex
from repro.crypto.signatures import SigningKey, VerifyKey
from repro.crypto.threshold import ThresholdScheme
from repro.errors import ConfigurationError
from repro.metrics.collector import LatencyRecorder
from repro.services.interface import AuthenticatedService, Operation
from repro.sim.events import Simulator
from repro.sim.network import Network
from repro.sim.process import Process


class _InFlightRequest:
    """Book-keeping for one not-yet-acknowledged request."""

    __slots__ = ("request", "issued_at", "retry_timer", "fallback_replies")

    def __init__(self, request: ClientRequest, issued_at: float):
        self.request = request
        self.issued_at = issued_at
        self.retry_timer: Optional[int] = None
        # f+1 fallback votes per reply-value digest.
        self.fallback_replies = Tally()


class SBFTClient(Process):
    """A closed-loop client, optionally pipelined.

    With ``max_outstanding == 1`` (the default) the client issues its next
    request only when the previous one completes; with a larger value it keeps
    up to that many requests in flight, refilling the pipeline on every
    completion.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: int,
        client_id: int,
        config: SBFTConfig,
        signing_key: SigningKey,
        requests: Sequence[Sequence[Operation]],
        verifier: AuthenticatedService,
        pi_scheme: ThresholdScheme,
        recorder: Optional[LatencyRecorder] = None,
        costs: CryptoCosts = DEFAULT_COSTS,
        start_delay: float = 0.0,
        replica_verify_keys: Optional[Dict[int, VerifyKey]] = None,
    ):
        super().__init__(sim, node_id, name=f"client-{client_id}")
        self.network = network
        self.client_id = client_id
        self.config = config
        self.signing_key = signing_key
        self.costs = costs
        self.recorder = recorder or LatencyRecorder()
        self.verifier = verifier
        # Window size comes from the shared config only: the replicas size
        # their per-client reply caches from the same value, and a wider
        # client window than cache would break the sufficiency invariant
        # (see repro.core.reply_cache).
        self.max_outstanding = config.client_max_outstanding
        # Replica id -> verify key for the f+1 reply fallback.  A reply whose
        # claimed sender has no key here is rejected; a reply reaching a
        # client that was given no keys at all is a wiring error and raises.
        self.replica_verify_keys = replica_verify_keys
        # Scheme an execute-ack's π(d) is checked under.
        self.pi_scheme = pi_scheme

        self._requests = [tuple(ops) for ops in requests]
        self._next_index = 0
        self._timestamp = 0
        self._believed_primary = 0

        # timestamp -> in-flight state; timestamps are unique and monotone.
        self._in_flight: Dict[int, _InFlightRequest] = {}

        self.completed = 0
        self.accepted_values: List[Tuple[Any, ...]] = []
        self.stats = ClientStats()
        # Fired (at most once) when the client's workload drains, i.e. the
        # first time :attr:`done` becomes true after a completion.  The
        # cluster uses it for an O(1) are-we-finished check instead of
        # scanning every client after every event.
        self.on_done: Optional[Any] = None

        if self._requests:
            self.set_timer(start_delay, self._issue_next)

    # ------------------------------------------------------------------
    # Issuing requests
    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return self._next_index >= len(self._requests) and not self._in_flight

    def _issue_next(self) -> None:
        """Fill the pipeline up to ``max_outstanding`` in-flight requests.

        The pipeline is a *sliding window*: the next timestamp must stay
        within ``max_outstanding`` of the oldest in-flight request, even when
        newer requests completed out of order.  The replicas' bounded
        per-request reply caches are provably sufficient only under this
        discipline (see :mod:`repro.core.reply_cache`) — without it a stuck
        request could fall out of every replica's cache and never complete.
        """
        if self.crashed:
            return
        while (
            len(self._in_flight) < self.max_outstanding
            and self._next_index < len(self._requests)
        ):
            if (
                self._in_flight
                and self._timestamp + 1 - min(self._in_flight) >= self.max_outstanding
            ):
                return
            self._issue_one()

    def _issue_one(self) -> None:
        operations = self._requests[self._next_index]
        self._next_index += 1
        self._timestamp += 1
        self.charge_cpu(self.costs.rsa_sign)
        # No replica checks request signatures (they are carried and charged
        # for only), so no provenance record is kept for the run's lifetime.
        signature = self.signing_key.sign(
            ("request", self.client_id, self._timestamp), provenance=False
        )
        request = ClientRequest(
            client_id=self.client_id,
            timestamp=self._timestamp,
            operations=tuple(operations),
            signature=signature,
        )
        pending = _InFlightRequest(request, issued_at=self.sim.now)
        self._in_flight[request.timestamp] = pending
        self.network.send(self.node_id, self._believed_primary, request)
        pending.retry_timer = self.set_timer(
            self.config.client_retry_timeout, self._on_retry_timeout, request.timestamp
        )

    def _on_retry_timeout(self, timestamp: int) -> None:
        pending = self._in_flight.get(timestamp)
        if pending is None:
            return
        pending.retry_timer = None
        # Retry path: re-send to all replicas and ask for f+1 signed replies.
        self.stats.retries += 1
        self.network.broadcast_bulk(self.node_id, pending.request, range(self.config.n))
        pending.retry_timer = self.set_timer(
            self.config.client_retry_timeout, self._on_retry_timeout, timestamp
        )
        # Rotate the believed primary in case it is the one that failed us —
        # only on the *oldest* in-flight request's timeout, so a pipelined
        # client advances one replica per retry period regardless of how many
        # requests time out (per-request rotation would alias:
        # max_outstanding == n lands right back on the dead primary).
        if timestamp == min(self._in_flight):
            self._believed_primary = (self._believed_primary + 1) % self.config.n

    # ------------------------------------------------------------------
    # Receiving acknowledgements
    # ------------------------------------------------------------------
    def on_message(self, message: Any, src: int) -> None:
        if isinstance(message, ExecuteAck):
            self.compute(self._ack_cost(message), self._on_execute_ack, message, src)
        elif isinstance(message, ClientReply):
            self.compute(self.costs.rsa_verify, self._on_client_reply, message, src)

    def _ack_cost(self, message: ExecuteAck) -> float:
        proof_levels = 20 if message.proof is not None else 0
        return self.costs.bls_verify_combined + self.costs.merkle_proof_per_level * proof_levels

    def _on_execute_ack(self, message: ExecuteAck, src: int) -> None:
        if message.client_id != self.client_id:
            return
        pending = self._in_flight.get(message.timestamp)
        if pending is None:
            return
        if not self._verify_ack(message, pending):
            self.stats.acks_rejected += 1
            return
        self.stats.acks_accepted += 1
        self._complete(pending, message.values)

    def _verify_ack(self, message: ExecuteAck, pending: _InFlightRequest) -> bool:
        """π(d) over the state digest, then — for a request with operations —
        the proof tying the first returned value to that digest: without it
        nothing binds the values to the signed state."""
        sign_message = ("state", message.sequence, message.state_digest)
        if not self.pi_scheme.verify_message(message.pi_signature, sign_message):
            return False
        operations = pending.request.operations
        if not operations:
            return True
        if message.proof is None:
            return False
        return self.verifier.verify(
            message.state_digest,
            operations[0],
            message.values[0] if message.values else None,
            message.sequence,
            message.first_position,
            message.proof,
        )

    def _on_client_reply(self, message: ClientReply, src: int) -> None:
        pending = self._in_flight.get(message.timestamp)
        if pending is None:
            return
        if self.replica_verify_keys is None:
            raise ConfigurationError(
                f"{self.name} received a ClientReply but was built without replica_verify_keys"
            )
        key = self.replica_verify_keys.get(message.replica_id)
        if key is None or not key.verify(
            ("reply", self.client_id, message.timestamp, message.values), message.signature
        ):
            self.stats.acks_rejected += 1
            return
        # Replies are matched by value digest (values may contain unhashable
        # structures such as ledger receipts).
        values_digest = sha256_hex("reply-values", message.values)
        if pending.fallback_replies.add(values_digest, message.replica_id) >= self.config.f + 1:
            self.stats.fallbacks += 1
            self._complete(pending, message.values)

    def _complete(self, pending: _InFlightRequest, values: Tuple[Any, ...]) -> None:
        request = pending.request
        if self._in_flight.pop(request.timestamp, None) is None:
            return
        if pending.retry_timer is not None:
            self.cancel_timer(pending.retry_timer)
            pending.retry_timer = None
        self.completed += 1
        self.accepted_values.append(values)
        self.recorder.record(pending.issued_at, self.sim.now, operations=len(request.operations))
        self._issue_next()
        if self.on_done is not None and self.done:
            self.on_done()
