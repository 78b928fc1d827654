"""Point-to-point message transport between simulated processes.

All replica-to-replica and client-to-replica communication goes through a
:class:`Network`.  The network charges a per-message serialization delay
(message size / link bandwidth), a one-way propagation delay from the latency
model, and optionally drops or delays messages to model the asynchronous
adversary of the system model (Section II).
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from repro.errors import NetworkError
from repro.sim.events import Simulator
from repro.sim.latency import LatencyModel, UniformLatency
from repro.sim.process import Process


@dataclass(slots=True)
class NetworkStats:
    """Aggregate traffic counters, used by the linearity benchmarks.

    The per-type tables are :class:`collections.Counter` (a dict subclass),
    so hot-path accounting is a single C-level ``+=`` per message instead of
    a ``dict.get`` read-modify-write.  The counter set is fixed, so the
    instance is slotted: every ``record`` touches four attributes, and slot
    loads skip the per-instance dict entirely.
    """

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    bytes_sent: int = 0
    per_type_count: Counter = field(default_factory=Counter)
    per_type_bytes: Counter = field(default_factory=Counter)

    def record(self, msg_type: str, size: int) -> None:
        self.messages_sent += 1
        self.bytes_sent += size
        self.per_type_count[msg_type] += 1
        self.per_type_bytes[msg_type] += size

    def record_bulk(self, msg_type: str, size: int, count: int) -> None:
        """Record ``count`` same-type, same-size sends in one update."""
        self.messages_sent += count
        self.bytes_sent += size * count
        self.per_type_count[msg_type] += count
        self.per_type_bytes[msg_type] += size * count


def _message_type(message: Any) -> str:
    # No ``getattr`` with a default: the default would be built on every send.
    try:
        return message.msg_type
    except AttributeError:
        return type(message).__name__


def _message_size(message: Any) -> int:
    # Protocol messages carry ``size_bytes`` as a plain ``int`` fixed at
    # construction (``tests/test_hot_path_representation.py`` pins it), so
    # sizing is one attribute load.  A payload without one (a test's probe)
    # is charged 256 bytes.
    size = getattr(message, "size_bytes", None)
    if isinstance(size, int):
        return size
    return 256


class Network:
    """Simulated point-to-point network.

    Parameters
    ----------
    sim:
        The owning simulator.
    latency:
        Latency model used for propagation delays; defaults to a 1 ms LAN.
    bandwidth_bytes_per_sec:
        Serialization bandwidth, charged per copy: every send and every
        copy of a broadcast adds ``size / bandwidth`` to its own delay, with
        no queue shared by a sender's copies (ROADMAP item 1).  ``None``
        disables the serialization delay.
    drop_rate:
        Independent probability that any given message is dropped.  Per the
        system model the adversary may drop each packet a finite number of
        times; protocols are expected to re-transmit.
    """

    def __init__(
        self,
        sim: Simulator,
        latency: Optional[LatencyModel] = None,
        # 1.5625e9 bytes/s = 12.5 Gbit/s.  Every committed fingerprint
        # depends on the value; ROADMAP item 1 (bandwidth as a property of
        # the topology) owns changing it.
        bandwidth_bytes_per_sec: Optional[float] = 1.25e9 / 8.0 * 10,
        drop_rate: float = 0.0,
        seed: Optional[int] = None,
    ):
        self.sim = sim
        self.latency = latency or UniformLatency()
        self.bandwidth = bandwidth_bytes_per_sec
        self.drop_rate = drop_rate
        self.rng = random.Random(seed if seed is not None else sim.rng.getrandbits(32))
        self.stats = NetworkStats()
        self._nodes: dict[int, Process] = {}
        self._down_links: set[tuple[int, int]] = set()
        self._isolated: set[int] = set()
        self._taps: list[Callable[[int, int, Any], None]] = []
        self._interceptor: Optional[Callable[[int, int, Any], Any]] = None

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def register(self, node: Process) -> None:
        """Register a process so it can receive messages."""
        if node.node_id in self._nodes:
            raise NetworkError(f"node id {node.node_id} registered twice")
        self._nodes[node.node_id] = node

    # ------------------------------------------------------------------
    # Fault / partition control
    # ------------------------------------------------------------------
    def set_link_down(self, src: int, dst: int) -> None:
        self._down_links.add((src, dst))

    def set_link_up(self, src: int, dst: int) -> None:
        self._down_links.discard((src, dst))

    def isolate(self, node_id: int) -> None:
        """Drop all traffic to and from a node (network partition of one)."""
        self._isolated.add(node_id)

    def reconnect(self, node_id: int) -> None:
        self._isolated.discard(node_id)

    def add_tap(self, tap: Callable[[int, int, Any], None]) -> None:
        """Register an observer called as ``tap(src, dst, message)`` on send."""
        self._taps.append(tap)

    def set_interceptor(
        self, interceptor: Optional[Callable[[int, int, Any], Any]]
    ) -> None:
        """Install an active message interceptor (``None`` clears it).

        The interceptor is called as ``interceptor(src, dst, message)`` after
        stats and taps but before the network's own drop/latency decisions.
        It returns ``None`` to drop the message (counted in
        ``messages_dropped``), or ``(message, extra_delay)`` to forward a
        possibly substituted message with ``extra_delay`` seconds added on
        top of the normal propagation + serialization delay.

        The interceptor draws no network RNG itself, so installing one that
        forwards everything unchanged with zero extra delay leaves fixed-seed
        runs byte-identical.  While an interceptor is installed,
        :meth:`broadcast_bulk` degrades to the semantically identical
        per-destination :meth:`send` loop so every copy is intercepted
        individually (same RNG draw sequence per the bulk contract below).
        """
        self._interceptor = interceptor

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, src: int, dst: int, message: Any) -> None:
        """Send a message; delivery is scheduled per the latency model."""
        node = self._nodes.get(dst)
        if node is None:
            raise NetworkError(f"send to unknown node {dst}")
        size = _message_size(message)
        self.stats.record(_message_type(message), size)
        if self._taps:
            for tap in self._taps:
                tap(src, dst, message)

        if self._interceptor is None:
            extra_delay = 0.0
        else:
            verdict = self._interceptor(src, dst, message)
            if verdict is None:
                self.stats.messages_dropped += 1
                return
            replacement, extra_delay = verdict
            if replacement is not message:
                message = replacement
                size = _message_size(message)

        if (
            (src, dst) in self._down_links
            or src in self._isolated
            or dst in self._isolated
            or (self.drop_rate > 0.0 and self.rng.random() < self.drop_rate)
        ):
            self.stats.messages_dropped += 1
            return

        delay = self.latency.delay(src, dst, self.rng)
        if self.bandwidth:
            delay += size / self.bandwidth
        if extra_delay:
            delay += extra_delay
        self.sim.schedule(delay, self._deliver, node, message, src)

    def broadcast_bulk(self, src: int, message: Any, dst_ids: Iterable[int]) -> None:
        """Fan one message out to many destinations as a bulk operation.

        Semantically identical to ``for dst in dst_ids: send(src, dst,
        message)`` — including the RNG draw sequence, so fixed-seed runs are
        byte-identical — but the per-message work is hoisted out of the loop:
        the message size/type is computed once, traffic stats are recorded in
        one bulk update, per-destination latencies come from the vectorized
        :meth:`LatencyModel.delays_from`, and all deliveries are handed to
        :meth:`Simulator.schedule_many` as a single fan-out batch.

        RNG-order contract (matches :meth:`send` exactly): destinations are
        processed in iteration order; a destination on a downed link or
        behind an isolated node draws nothing; with ``drop_rate > 0`` each
        remaining destination draws the drop decision and then — only if it
        survives — its latency sample, before the next destination draws.

        Destination validation is all-or-nothing: an unknown destination
        raises :class:`NetworkError` before any stats, taps or RNG draws
        (a ``send`` loop would fail midway with partial effects).
        """
        dsts = list(dst_ids)
        if not dsts:
            return
        nodes = self._nodes
        try:
            resolved = [nodes[dst] for dst in dsts]
        except KeyError as error:
            raise NetworkError(f"send to unknown node {error.args[0]}") from None
        if self._interceptor is not None:
            # An interceptor may drop, delay or substitute each copy
            # individually, so the bulk fast path does not apply.  The
            # per-destination loop matches the documented RNG-order
            # contract exactly; destination validation already happened
            # above, preserving the all-or-nothing guarantee.
            for dst in dsts:
                self.send(src, dst, message)
            return
        size = _message_size(message)
        self.stats.record_bulk(_message_type(message), size, len(dsts))
        if self._taps:
            for dst in dsts:
                for tap in self._taps:
                    tap(src, dst, message)

        down = self._down_links
        isolated = self._isolated
        drop_rate = self.drop_rate
        rng = self.rng
        if not drop_rate and not down and not isolated:
            # Fault-free fast path: no drop decisions exist, so all RNG
            # draws are latency samples in destination order.
            targets = resolved
            delays = self.latency.delays_from(src, dsts, rng)
        else:
            # Drop decisions interleave with latency draws; keep the
            # per-destination order of ``send`` exactly.
            delay_of = self.latency.delay
            targets = []
            append_target = targets.append
            delays = []
            append_delay = delays.append
            dropped = 0
            src_isolated = src in isolated
            for dst, node in zip(dsts, resolved):
                if (
                    (src, dst) in down
                    or src_isolated
                    or dst in isolated
                    or (drop_rate > 0.0 and rng.random() < drop_rate)
                ):
                    dropped += 1
                    continue
                append_delay(delay_of(src, dst, rng))
                append_target(node)
            if dropped:
                self.stats.messages_dropped += dropped

        if not targets:
            return
        if self.bandwidth:
            serialization = size / self.bandwidth
            delays = [delay + serialization for delay in delays]
        args_list = [(node, message, src) for node in targets]
        self.sim.schedule_many(delays, self._deliver, args_list)

    def _deliver(self, node: Process, message: Any, src: int) -> None:
        self.stats.messages_delivered += 1
        node.deliver(message, src)
