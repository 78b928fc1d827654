"""Unit tests for the Process base class and its CPU model."""

import pytest

from repro.sim.events import Simulator
from repro.sim.process import CPUModel, Process


class Echo(Process):
    """Minimal process that records delivered messages."""

    def __init__(self, sim, node_id):
        super().__init__(sim, node_id)
        self.received = []

    def on_message(self, message, src):
        self.received.append((message, src))


def test_cpu_serializes_work():
    sim = Simulator()
    cpu = CPUModel(sim)
    done = []
    cpu.execute(0.010, done.append, "first")
    cpu.execute(0.005, done.append, "second")
    sim.run()
    assert done == ["first", "second"]
    # Second task starts only after the first finishes: 10ms + 5ms.
    assert sim.now == pytest.approx(0.015)


def test_cpu_speed_factor_scales_cost():
    sim = Simulator()
    cpu = CPUModel(sim, speed_factor=3.0)
    cpu.execute(0.01, lambda: None)
    sim.run()
    assert sim.now == pytest.approx(0.03)
    assert cpu.total_busy_time == pytest.approx(0.03)


def test_cpu_charge_advances_busy_time_without_callback():
    sim = Simulator()
    cpu = CPUModel(sim)
    finish = cpu.charge(0.02)
    assert finish == pytest.approx(0.02)
    # Work queued afterwards starts after the charged time.
    done = []
    cpu.execute(0.01, done.append, True)
    sim.run()
    assert sim.now == pytest.approx(0.03)


def test_timer_fires_and_can_be_cancelled():
    sim = Simulator()
    proc = Echo(sim, 0)
    fired = []
    proc.set_timer(0.1, fired.append, "kept")
    handle = proc.set_timer(0.2, fired.append, "cancelled")
    proc.cancel_timer(handle)
    sim.run()
    assert fired == ["kept"]


def test_cancel_unknown_timer_is_ignored():
    sim = Simulator()
    proc = Echo(sim, 0)
    proc.cancel_timer(12345)  # should not raise


def test_crashed_process_ignores_messages_and_timers():
    sim = Simulator()
    proc = Echo(sim, 0)
    fired = []
    proc.set_timer(0.1, fired.append, "timer")
    proc.crash()
    proc.deliver("hello", src=1)
    sim.run()
    assert proc.received == []
    assert fired == []


def test_recover_allows_delivery_again():
    sim = Simulator()
    proc = Echo(sim, 0)
    proc.crash()
    proc.deliver("lost", src=1)
    proc.recover()
    proc.deliver("kept", src=1)
    assert proc.received == [("kept", 1)]


def test_compute_skips_callback_after_crash():
    sim = Simulator()
    proc = Echo(sim, 0)
    called = []
    proc.compute(0.05, called.append, "done")
    proc.crash()
    sim.run()
    assert called == []
