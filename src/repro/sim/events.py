"""Event queue and simulator clock.

The simulator is a plain priority queue of ``(time, sequence, callback)``
entries.  The sequence number gives deterministic FIFO ordering for events
scheduled at the same instant, which keeps runs reproducible for a fixed seed.

Cancelled events are lazily removed: :meth:`Event.cancel` only marks the
entry, and the simulator skips it when its time arrives.  Protocol timers
(client retries, batch timers, per-request view-change timers) churn
constantly on long runs, so the simulator additionally *compacts* the heap
once cancelled entries dominate it — otherwise the heap grows without bound
and every push/pop pays ``log`` of the garbage, not of the live work.
Compaction preserves execution order exactly: events are totally ordered by
``(time, seq)``, so rebuilding the heap from the live entries pops the same
sequence of callbacks as before.
"""

from __future__ import annotations

import gc
import heapq
import random
from typing import Any, Callable, List, Optional, Sequence

from repro.errors import SimulationError


class Event:
    """A scheduled callback.

    Events are returned by :meth:`Simulator.schedule` so callers can cancel
    them (e.g. protocol timers).  A cancelled event is skipped when popped and
    reclaimed by the owning simulator's next heap compaction.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "owner")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., None],
        args: tuple,
        owner: Optional["Simulator"] = None,
    ):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.owner = owner

    def cancel(self) -> None:
        """Mark the event so it is skipped when its time arrives."""
        if not self.cancelled:
            self.cancelled = True
            if self.owner is not None:
                self.owner._note_cancelled()

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6f}, seq={self.seq}, {state})"


class Simulator:
    """Deterministic discrete-event scheduler.

    Parameters
    ----------
    seed:
        Seed for the simulator-owned random number generator.  All randomness
        in the simulation (latency jitter, drops, collector selection noise)
        should derive from :attr:`rng` or from generators seeded from it so
        that a run is a pure function of its seed.
    """

    #: Compaction never triggers below this many cancelled entries, so small
    #: simulations keep the cheap lazy-deletion behaviour.
    COMPACT_MIN_CANCELLED = 64

    def __init__(self, seed: int = 0):
        self.now: float = 0.0
        self.rng = random.Random(seed)
        # Heap entries are ``(time, seq, event)`` tuples rather than bare
        # events: ``(time, seq)`` is unique, so every sift comparison is a
        # C-level tuple compare that never reaches the event object (the
        # Python-level ``Event.__lt__`` is kept only for external sorting).
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._events_processed = 0
        self._cancelled = 0
        self._compactions = 0
        self._stopped = False
        # Optional per-event observer installed by the determinism sanitizer
        # (repro.analysis.sanitizer).  When set, it is invoked with each event
        # immediately after its callback runs; ``None`` keeps the hot loop at
        # one attribute load of overhead.
        self._trace: Optional[Callable[[Event], None]] = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule an event in the past (delay={delay})")
        time = self.now + delay
        event = Event(time, self._seq, callback, args, owner=self)
        heapq.heappush(self._heap, (time, self._seq, event))
        self._seq += 1
        return event

    def schedule_many(
        self,
        delays: Sequence[float],
        callback: Callable[..., None],
        args_list: Sequence[tuple],
    ) -> List[Event]:
        """Bulk-schedule one callback with many ``(delay, args)`` pairs.

        This is the fan-out primitive behind :meth:`Network.broadcast_bulk`:
        ``callback(*args_list[i])`` runs ``delays[i]`` seconds from now.
        Events receive contiguous ``(time, seq)`` pairs in argument order —
        exactly the sequence numbers a loop of :meth:`schedule` calls would
        have assigned — so the total order guaranteed by the heap-compaction
        invariant (and therefore execution order) is identical to scheduling
        the entries one at a time.

        The heap is updated with one amortized operation: when the batch is
        large relative to the live heap the entries are appended and the heap
        re-heapified in O(heap + batch); small batches fall back to
        individual pushes.
        """
        if len(delays) != len(args_list):
            raise SimulationError("schedule_many: delays and args_list length mismatch")
        if not delays:
            return []
        lowest = min(delays)
        if lowest < 0:
            raise SimulationError(f"cannot schedule an event in the past (delay={lowest})")
        now = self.now
        seq = self._seq
        events: List[Event] = [
            Event(now + delay, seq + offset, callback, args, self)
            for offset, (delay, args) in enumerate(zip(delays, args_list))
        ]
        self._seq = seq + len(events)
        entries = [(event.time, event.seq, event) for event in events]
        heap = self._heap
        if len(entries) * 4 >= len(heap):
            heap.extend(entries)
            heapq.heapify(heap)
        else:
            push = heapq.heappush
            for entry in entries:
                push(heap, entry)
        return events

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at an absolute simulation time."""
        return self.schedule(max(0.0, time - self.now), callback, *args)

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    # ------------------------------------------------------------------
    # Cancelled-event compaction
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """Called by :meth:`Event.cancel`; compacts once garbage dominates."""
        self._cancelled += 1
        if (
            self._cancelled >= self.COMPACT_MIN_CANCELLED
            and self._cancelled * 2 >= len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify the live ones.

        Compaction rewrites the heap *in place*: :meth:`run` holds a local
        binding to the heap list across events, and callbacks can trigger a
        compaction mid-run (a cancel storm inside an event handler).
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapq.heapify(heap)
        self._cancelled = 0
        self._compactions += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> int:
        """Run events until the queue drains or a stop condition is met.

        Parameters
        ----------
        until:
            Stop once the clock would pass this time (the clock is left at
            ``until``).
        max_events:
            Stop after this many events have been processed in this call.
        stop_when:
            Predicate evaluated after each event; the run stops when it
            returns true.

        Returns
        -------
        int
            The number of events processed by this call.
        """
        processed = 0
        self._stopped = False
        # Local bindings for the per-event loop.  ``heap`` stays valid across
        # callbacks because :meth:`_compact` rewrites the list in place, and
        # the lifetime total is folded in once at the end (nothing observes
        # ``events_processed`` mid-run).
        heap = self._heap
        pop = heapq.heappop
        # Automatic cyclic GC is suspended while events run.  Event-loop
        # callbacks create no reference cycles (the zero-cycle test in
        # ``tests/test_hot_path.py`` pins ``gc.collect() == 0`` after whole
        # cluster runs), so every collector pass the allocation counters
        # trigger walks the heap and frees nothing; reference counting still
        # frees everything as it dies.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            while heap:
                if max_events is not None and processed >= max_events:
                    break
                entry = heap[0]
                event = entry[2]
                if event.cancelled:
                    pop(heap)
                    event.owner = None
                    self._cancelled -= 1
                    continue
                time = entry[0]
                if until is not None and time > until:
                    self.now = until
                    break
                pop(heap)
                # The event has left the heap: a late cancel() must not count it
                # toward heap garbage (it would corrupt live_events / compaction).
                event.owner = None
                self.now = time
                event.callback(*event.args)
                if self._trace is not None:
                    self._trace(event)
                processed += 1
                if self._stopped:
                    break
                if stop_when is not None and stop_when():
                    break
            else:
                if until is not None and self.now < until:
                    self.now = until
        finally:
            if gc_was_enabled:
                gc.enable()
        self._events_processed += processed
        return processed

    @property
    def pending_events(self) -> int:
        """Number of heap entries, including cancelled ones not yet compacted.

        Progress/termination heuristics should use :attr:`live_events`; this
        property reflects raw heap occupancy (useful for memory accounting).
        """
        return len(self._heap)

    @property
    def live_events(self) -> int:
        """Number of events still queued that will actually fire."""
        return len(self._heap) - self._cancelled

    @property
    def cancelled_events(self) -> int:
        """Cancelled entries currently awaiting compaction or skip-on-pop."""
        return self._cancelled

    @property
    def compactions(self) -> int:
        """Number of heap compactions performed (observability for tests)."""
        return self._compactions

    @property
    def events_processed(self) -> int:
        """Total number of events processed over the simulator's lifetime."""
        return self._events_processed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self.now:.6f}, live={self.live_events}, "
            f"pending={len(self._heap)})"
        )
