"""Process (node) abstraction with timers and a CPU occupancy model.

Replicas and clients are :class:`Process` subclasses.  The CPU model is what
turns cryptographic and execution *costs* into simulated *time*: a node can
only process one costly operation at a time, so a replica that must verify
hundreds of signature shares per block saturates and throughput flattens —
exactly the effect the paper's Figure 2 measures.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.events import Event, Simulator


class CPUModel:
    """Single-core CPU occupancy model with an optional speed factor.

    ``speed_factor`` scales all costs; a straggler replica can be modelled by
    setting it above 1.0 (see :mod:`repro.sim.faults`).
    """

    def __init__(self, sim: Simulator, speed_factor: float = 1.0):
        self._sim = sim
        self.speed_factor = speed_factor
        self._busy_until = 0.0
        self.total_busy_time = 0.0

    def execute(self, cost: float, callback: Callable[..., None], *args: Any) -> None:
        """Charge ``cost`` seconds of CPU and run ``callback`` when done.

        Work is serialized: if the CPU is already busy the new work starts when
        the previous work completes.
        """
        # Conditional expressions, not max(): the same floats (max(0.0, x)
        # and max(now, busy) keep the first argument on a tie) without two
        # builtin calls per message.
        cost = (cost if cost > 0.0 else 0.0) * self.speed_factor
        now = self._sim.now
        busy = self._busy_until
        finish = (busy if busy > now else now) + cost
        self._busy_until = finish
        self.total_busy_time += cost
        self._sim.schedule(finish - now, callback, *args)

    def charge(self, cost: float) -> float:
        """Charge ``cost`` seconds of CPU without a completion callback.

        Returns the simulated time at which the work completes.  Useful for
        accounting costs of work whose result is consumed synchronously.
        """
        cost = (cost if cost > 0.0 else 0.0) * self.speed_factor
        now = self._sim.now
        busy = self._busy_until
        self._busy_until = (busy if busy > now else now) + cost
        self.total_busy_time += cost
        return self._busy_until

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` wall-clock (simulated) time spent busy."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.total_busy_time / elapsed)


class Process:
    """Base class for every simulated node (replicas, collectors, clients).

    Subclasses implement :meth:`on_message` and use :meth:`set_timer` /
    :meth:`compute` for protocol timers and CPU-costly operations.
    """

    def __init__(self, sim: Simulator, node_id: int, name: Optional[str] = None):
        self.sim = sim
        self.node_id = node_id
        self.name = name or f"node-{node_id}"
        self.cpu = CPUModel(sim)
        self.crashed = False
        self._timers: dict[int, Event] = {}
        self._timer_seq = 0

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def deliver(self, message: Any, src: int) -> None:
        """Entry point used by the network; ignores messages when crashed."""
        if self.crashed:
            return
        self.on_message(message, src)

    def on_message(self, message: Any, src: int) -> None:
        """Handle a delivered message.  Subclasses override."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def set_timer(self, delay: float, callback: Callable[..., None], *args: Any) -> int:
        """Arm a timer; returns a handle usable with :meth:`cancel_timer`."""
        handle = self._timer_seq
        self._timer_seq += 1

        def fire() -> None:
            self._timers.pop(handle, None)
            if not self.crashed:
                callback(*args)

        self._timers[handle] = self.sim.timer(delay, fire)
        return handle

    def cancel_timer(self, handle: int) -> None:
        """Cancel a previously armed timer; unknown handles are ignored."""
        event = self._timers.pop(handle, None)
        if event is not None:
            event.cancel()

    def cancel_all_timers(self) -> None:
        for event in self._timers.values():
            event.cancel()
        self._timers.clear()

    # ------------------------------------------------------------------
    # CPU
    # ------------------------------------------------------------------
    def compute(self, cost: float, callback: Callable[..., None], *args: Any) -> None:
        """Charge CPU time and invoke ``callback`` once the work completes."""

        def done() -> None:
            if not self.crashed:
                callback(*args)

        self.cpu.execute(cost, done)

    def charge_cpu(self, cost: float) -> None:
        """Charge CPU time whose result is consumed inline (no callback)."""
        self.cpu.charge(cost)

    # ------------------------------------------------------------------
    # Fault hooks
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Crash the node: drop all timers and ignore all future messages."""
        self.crashed = True
        self.cancel_all_timers()

    def recover(self) -> None:
        """Clear the crash flag (state is whatever the subclass kept)."""
        self.crashed = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(id={self.node_id}, name={self.name!r})"
