"""Unit tests for the discrete-event scheduler."""

import bisect
import gc

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.events import Simulator


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(0.3, order.append, "c")
    sim.schedule(0.1, order.append, "a")
    sim.schedule(0.2, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == pytest.approx(0.3)


def test_same_time_events_run_fifo():
    sim = Simulator()
    order = []
    for name in ["first", "second", "third"]:
        sim.schedule(1.0, order.append, name)
    sim.run()
    assert order == ["first", "second", "third"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_cancelled_event_is_skipped():
    sim = Simulator()
    fired = []
    event = sim.timer(0.1, fired.append, "x")
    event.cancel()
    sim.schedule(0.2, fired.append, "y")
    sim.run()
    assert fired == ["y"]


def test_run_until_stops_clock_at_limit():
    sim = Simulator()
    fired = []
    sim.schedule(0.5, fired.append, "early")
    sim.schedule(2.0, fired.append, "late")
    sim.run(until=1.0)
    assert fired == ["early"]
    assert sim.now == pytest.approx(1.0)
    sim.run()
    assert fired == ["early", "late"]


def test_run_max_events():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(0.01 * (i + 1), fired.append, i)
    processed = sim.run(max_events=3)
    assert processed == 3
    assert fired == [0, 1, 2]


def test_stop_when_predicate():
    sim = Simulator()
    counter = []
    for i in range(10):
        sim.schedule(0.01 * (i + 1), counter.append, i)
    sim.run(stop_when=lambda: len(counter) >= 4)
    assert len(counter) == 4


def test_events_scheduled_during_run_are_processed():
    sim = Simulator()
    seen = []

    def chain(depth):
        seen.append(depth)
        if depth < 5:
            sim.schedule(0.1, chain, depth + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert seen == [0, 1, 2, 3, 4, 5]
    assert sim.now == pytest.approx(0.5)


def test_schedule_at_absolute_time():
    sim = Simulator()
    times = []
    sim.schedule_at(0.7, lambda: times.append(sim.now))
    sim.run()
    assert times == [pytest.approx(0.7)]


def test_stop_requests_early_exit():
    sim = Simulator()
    fired = []
    sim.schedule(0.1, lambda: (fired.append("a"), sim.stop()))
    sim.schedule(0.2, fired.append, "b")
    sim.run()
    assert fired == [("a", None)] or fired[0][0] == "a"
    assert len(sim._heap) >= 1


def test_deterministic_rng_from_seed():
    values_a = [Simulator(seed=5).rng.random() for _ in range(1)]
    values_b = [Simulator(seed=5).rng.random() for _ in range(1)]
    assert values_a == values_b
    assert Simulator(seed=6).rng.random() != Simulator(seed=5).rng.random()


# ----------------------------------------------------------------------
# Cyclic GC is suspended while events run, and only while they run
# ----------------------------------------------------------------------
@pytest.fixture
def restore_gc():
    was_enabled = gc.isenabled()
    yield
    (gc.enable if was_enabled else gc.disable)()


def test_run_suspends_gc_and_restores_it(restore_gc):
    gc.enable()
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda: seen.append(gc.isenabled()))
    sim.run()
    assert seen == [False]
    assert gc.isenabled()


def test_run_restores_gc_when_a_callback_raises(restore_gc):
    gc.enable()
    sim = Simulator()

    def boom():
        raise RuntimeError("callback failed")

    sim.schedule(1.0, boom)
    with pytest.raises(RuntimeError):
        sim.run()
    assert gc.isenabled()


def test_run_leaves_gc_disabled_when_the_caller_disabled_it(restore_gc):
    gc.disable()
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    assert sim.run() == 1
    assert not gc.isenabled()


def test_nested_run_does_not_re_enable_gc_for_the_outer_loop(restore_gc):
    gc.enable()
    sim, inner = Simulator(), Simulator()
    seen = []
    inner.schedule(1.0, lambda: None)
    sim.schedule(1.0, inner.run)
    sim.schedule(2.0, lambda: seen.append(gc.isenabled()))
    sim.run()
    assert seen == [False]
    assert gc.isenabled()


# ----------------------------------------------------------------------
# Differential: the heap kernel against a sorted-list reference model
# ----------------------------------------------------------------------
class _ModelTimer:
    def __init__(self, model):
        self.model = model
        self.cancelled = False
        self.queued = True

    def cancel(self):
        if not self.cancelled:
            self.cancelled = True
            if self.queued:
                self.model._note_cancelled()


class _SortedListSimulator:
    """The kernel's documented semantics, written the obvious way: one list
    kept sorted by ``(time, seq)``, scanned in order."""

    def __init__(self):
        self.now = 0.0
        self.queue = []
        self.seq = 0
        self.processed_total = 0
        self.cancelled = 0
        self.compactions = 0
        self.stopped = False

    def _insert(self, delay, callback, args, handle):
        if delay < 0:
            raise SimulationError("past")
        bisect.insort(self.queue, (self.now + delay, self.seq, callback, args, handle))
        self.seq += 1

    def schedule(self, delay, callback, *args):
        self._insert(delay, callback, args, None)

    def timer(self, delay, callback, *args):
        handle = _ModelTimer(self)
        self._insert(delay, callback, args, handle)
        return handle

    def schedule_many(self, delays, callback, args_list):
        for delay, args in zip(delays, args_list):
            self._insert(delay, callback, args, None)

    def schedule_at(self, time, callback, *args):
        self.schedule(max(0.0, time - self.now), callback, *args)

    def stop(self):
        self.stopped = True

    def _note_cancelled(self):
        self.cancelled += 1
        garbage = self.cancelled
        if garbage >= Simulator.COMPACT_MIN_CANCELLED and 2 * garbage >= len(self.queue):
            self.queue = [e for e in self.queue if e[4] is None or not e[4].cancelled]
            self.cancelled = 0
            self.compactions += 1

    def run(self, until=None, max_events=None):
        processed = 0
        self.stopped = False
        while self.queue:
            if max_events is not None and processed >= max_events:
                break
            time, _seq, callback, args, handle = self.queue[0]
            if handle is not None and handle.cancelled:
                del self.queue[0]
                handle.queued = False
                self.cancelled -= 1
                continue
            if until is not None and time > until:
                self.now = until
                break
            del self.queue[0]
            if handle is not None:
                handle.queued = False
            self.now = time
            callback(*args)
            processed += 1
            if self.stopped:
                break
        else:
            if until is not None and self.now < until:
                self.now = until
        self.processed_total += processed
        return processed

    def observe(self):
        return (self.now, self.processed_total, len(self.queue), self.cancelled,
                self.compactions)


def _observe_kernel(sim):
    return (sim.now, sim.events_processed, len(sim._heap), sim._cancelled, sim.compactions)


def _drive(sim, observe, program):
    """Run ``program`` on ``sim``; returns every firing and an observation
    after every step.  A scheduled event may carry a reaction it performs
    when it fires (schedule, arm a timer, cancel, a cancel storm, stop)."""
    log, handles = [], []

    def fire(label, reaction):
        log.append(("fire", label, sim.now))
        if reaction is not None:
            act(reaction, label)

    def act(step, label):
        kind = step[0]
        if kind == "schedule":
            sim.schedule(step[1], fire, label, step[2] if len(step) > 2 else None)
        elif kind == "schedule_at":
            sim.schedule_at(step[1], fire, label, step[2])
        elif kind == "schedule_many":
            sim.schedule_many(step[1], fire, [((label, i), step[2]) for i in range(len(step[1]))])
        elif kind == "timer":
            handles.append(sim.timer(step[1], fire, label, step[2] if len(step) > 2 else None))
        elif kind == "timers":
            handles.extend(sim.timer(step[2], fire, (label, i), None) for i in range(step[1]))
        elif kind == "cancel":
            if handles:
                handles[step[1] % len(handles)].cancel()
        elif kind == "storm":
            for handle in handles[-step[1]:]:
                handle.cancel()
        elif kind == "stop":
            sim.stop()
        elif kind == "run":
            log.append(("ran", sim.run(until=step[1], max_events=step[2])))
        log.append(observe(sim))

    for index, step in enumerate(program):
        act(step, index)
    act(("run", None, None), len(program))
    return log


_delays = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.5])
_reactions = st.one_of(
    st.none(),
    st.tuples(st.just("schedule"), _delays),
    st.tuples(st.just("timer"), _delays),
    st.tuples(st.just("cancel"), st.integers(0, 300)),
    st.tuples(st.just("storm"), st.integers(1, 150)),
    st.just(("stop",)),
)
_steps = st.one_of(
    st.tuples(st.just("schedule"), _delays, _reactions),
    st.tuples(st.just("schedule_at"), st.floats(0.0, 5.0), _reactions),
    st.tuples(st.just("schedule_many"), st.lists(_delays, max_size=8), _reactions),
    st.tuples(st.just("timer"), _delays, _reactions),
    st.tuples(st.just("timers"), st.integers(1, 150), _delays),
    st.tuples(st.just("cancel"), st.integers(0, 300)),
    st.tuples(st.just("storm"), st.integers(1, 150)),
    st.tuples(
        st.just("run"),
        st.none() | st.floats(0.0, 6.0),
        st.none() | st.integers(0, 30),
    ),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_steps, max_size=30))
def test_kernel_matches_a_sorted_list_model(program):
    """Same firing order and times, ``run`` return values, and
    ``events_processed``, live and cancelled heap entries and ``compactions``
    after every step, including late
    cancels, cancel storms past ``COMPACT_MIN_CANCELLED`` (between runs and
    from inside a callback) and ``run(until=, max_events=)``."""
    model = _SortedListSimulator()
    assert _drive(Simulator(), _observe_kernel, program) == _drive(
        model, _SortedListSimulator.observe, program
    )


def test_kernel_model_reaches_compaction_and_late_cancels():
    """The generated programs can reach what the differential is for."""
    sim = Simulator()
    program = [("timers", 150, 1.0), ("storm", 100), ("run", 0.5, None),
               ("timer", 0.0, None), ("run", None, None), ("storm", 150)]
    log = _drive(sim, _observe_kernel, program)
    assert sim.compactions == 1 and sim._cancelled == 0 and len(sim._heap) == 0
    assert log == _drive(_SortedListSimulator(), _SortedListSimulator.observe, program)
