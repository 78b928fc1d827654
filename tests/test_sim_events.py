"""Unit tests for the discrete-event scheduler."""

import gc

import pytest

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
    event = sim.schedule(0.1, fired.append, "x")
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
    assert sim.pending_events >= 1


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
