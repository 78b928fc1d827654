"""Unit tests for fault plans and the fault injector."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.events import Simulator
from repro.sim.faults import FAULT_KINDS, FaultInjector, FaultPlan, FaultSpec
from repro.sim.process import Process


class Dummy(Process):
    def on_message(self, message, src):  # pragma: no cover - not used
        pass


def test_fault_spec_validation():
    with pytest.raises(ConfigurationError):
        FaultSpec(replica_id=0, kind="meltdown")
    with pytest.raises(ConfigurationError):
        FaultSpec(replica_id=0, kind="slow", slow_factor=0.5)


def test_crash_first_plan():
    plan = FaultPlan.crash_first(3)
    assert {spec.replica_id for spec in plan.faults} == {0, 1, 2}
    assert len(plan) == 3


def test_crash_backups_never_touches_replica_zero():
    plan = FaultPlan.crash_backups(2, n=7)
    assert 0 not in {spec.replica_id for spec in plan.faults}
    assert {spec.replica_id for spec in plan.faults} == {6, 5}


def test_plan_extend():
    plan = FaultPlan.crash_first(1).extend(FaultPlan.slow([3], factor=4.0))
    assert {spec.replica_id for spec in plan.faults} == {0, 3}


def test_injector_crashes_at_scheduled_time():
    sim = Simulator()
    replicas = {i: Dummy(sim, i) for i in range(3)}
    injector = FaultInjector(sim, replicas)
    injector.apply(FaultPlan.crash_first(1, at_time=0.5))
    sim.run(until=0.4)
    assert not replicas[0].crashed
    sim.run(until=0.6)
    assert replicas[0].crashed
    assert not replicas[1].crashed


def test_injector_slow_changes_speed_factor():
    sim = Simulator()
    replicas = {0: Dummy(sim, 0)}
    FaultInjector(sim, replicas).apply(FaultPlan.slow([0], factor=7.0))
    sim.run()
    assert replicas[0].cpu.speed_factor == 7.0


def test_injector_byzantine_calls_the_behaviour_with_the_replica_at_the_scheduled_time():
    sim = Simulator()
    replicas = {0: Dummy(sim, 0), 1: Dummy(sim, 1)}
    compromised = []
    injector = FaultInjector(sim, replicas)
    injector.apply(
        FaultPlan.byzantine([1], lambda replica: compromised.append((sim.now, replica)), at_time=0.5)
    )
    sim.run(until=0.4)
    assert compromised == []
    sim.run()
    assert compromised == [(0.5, replicas[1])]
    assert not replicas[1].crashed
    assert [spec.kind for spec in injector.applied] == ["byzantine"]


def _two_node_injector():
    sim = Simulator()
    replicas = {0: Dummy(sim, 0), 1: Dummy(sim, 1)}
    return FaultInjector(sim, replicas, network=_network(sim, replicas))


@pytest.mark.parametrize("kind", FAULT_KINDS)
def test_every_fault_kind_has_an_activation_branch(kind):
    """``_activate`` ends in ``else: raise``, so a kind added to
    ``FAULT_KINDS`` without a branch fails here instead of silently doing
    nothing (each heal counterpart is checked by the heal tests below)."""
    injector = _two_node_injector()
    spec = FaultSpec(replica_id=0, kind=kind, behaviour=lambda replica: None, peers=(1,))
    injector._activate(spec)
    assert injector.applied == [spec]


def test_a_fault_kind_without_an_activation_branch_raises(monkeypatch):
    monkeypatch.setattr("repro.sim.faults.FAULT_KINDS", FAULT_KINDS + ("pause",))
    injector = _two_node_injector()
    with pytest.raises(ConfigurationError, match="'pause' has no activation branch"):
        injector._activate(FaultSpec(replica_id=0, kind="pause"))
    assert injector.applied == []


def test_injector_rejects_unknown_replica():
    sim = Simulator()
    injector = FaultInjector(sim, {0: Dummy(sim, 0)})
    with pytest.raises(ConfigurationError):
        injector.apply(FaultPlan.crash_first(1, node_ids=[9]))


# ----------------------------------------------------------------------
# Regression: at_time is an absolute simulation time, not a delay
# ----------------------------------------------------------------------
def test_plan_applied_mid_run_activates_at_absolute_time():
    sim = Simulator()
    replicas = {0: Dummy(sim, 0)}
    injector = FaultInjector(sim, replicas)
    # Warm up the clock past zero, then inject a fault scheduled for t=2.0:
    # it must fire at 2.0, not at sim.now + 2.0 (the old delay bug).
    sim.schedule(1.5, lambda: injector.apply(FaultPlan.crash_first(1, at_time=2.0)))
    sim.run(until=1.9)
    assert not replicas[0].crashed
    sim.run(until=2.1)
    assert replicas[0].crashed


def test_plan_applied_after_at_time_activates_immediately():
    sim = Simulator()
    replicas = {0: Dummy(sim, 0)}
    injector = FaultInjector(sim, replicas)
    sim.schedule(3.0, lambda: injector.apply(FaultPlan.crash_first(1, at_time=1.0)))
    sim.run(until=3.5)
    assert replicas[0].crashed


# ----------------------------------------------------------------------
# Regression: slow faults multiply (and heal restores) the speed factor
# ----------------------------------------------------------------------
def test_slow_fault_multiplies_existing_speed_factor():
    sim = Simulator()
    replicas = {0: Dummy(sim, 0)}
    replicas[0].cpu.speed_factor = 2.0  # already a straggler
    FaultInjector(sim, replicas).apply(FaultPlan.slow([0], factor=3.0))
    sim.run()
    assert replicas[0].cpu.speed_factor == pytest.approx(6.0)


def test_stacked_slow_faults_compose():
    sim = Simulator()
    replicas = {0: Dummy(sim, 0)}
    injector = FaultInjector(sim, replicas)
    injector.apply(FaultPlan.slow([0], factor=2.0, at_time=0.5))
    injector.apply(FaultPlan.slow([0], factor=4.0, at_time=1.0))
    sim.run()
    assert replicas[0].cpu.speed_factor == pytest.approx(8.0)


def test_heal_restores_pre_fault_speed_factor():
    sim = Simulator()
    replicas = {0: Dummy(sim, 0)}
    replicas[0].cpu.speed_factor = 1.5
    injector = FaultInjector(sim, replicas)
    plan = FaultPlan.slow([0], factor=2.0, at_time=0.5).extend(
        FaultPlan.slow([0], factor=3.0, at_time=1.0)
    ).extend(FaultPlan.heal([0], at_time=2.0))
    injector.apply(plan)
    sim.run(until=1.5)
    assert replicas[0].cpu.speed_factor == pytest.approx(9.0)
    sim.run(until=2.5)
    assert replicas[0].cpu.speed_factor == pytest.approx(1.5)


# ----------------------------------------------------------------------
# Regression: byzantine specs without a behaviour and oversized crash_backups
# ----------------------------------------------------------------------
def test_byzantine_spec_without_a_behaviour_is_rejected_at_construction():
    with pytest.raises(ConfigurationError, match="behaviour"):
        FaultSpec(replica_id=0, kind="byzantine")
    assert FaultSpec(replica_id=0, kind="byzantine", behaviour=print).behaviour is print


def test_crash_backups_rejects_more_than_n_minus_one():
    with pytest.raises(ConfigurationError):
        FaultPlan.crash_backups(4, n=4)
    # The maximum legal count leaves replica 0 untouched.
    plan = FaultPlan.crash_backups(3, n=4)
    assert {spec.replica_id for spec in plan.faults} == {1, 2, 3}


# ----------------------------------------------------------------------
# New fault kinds: partition, restart, heal
# ----------------------------------------------------------------------
def _network(sim, nodes):
    from repro.sim.network import Network

    network = Network(sim, seed=1)
    for node in nodes.values():
        network.register(node)
    return network


def test_partition_and_heal_toggle_links_both_ways():
    sim = Simulator()
    replicas = {i: Dummy(sim, i) for i in range(4)}
    network = _network(sim, replicas)
    injector = FaultInjector(sim, replicas, network=network)
    plan = FaultPlan.partition([3], n=4, at_time=1.0).extend(FaultPlan.heal([3], at_time=2.0))
    injector.apply(plan)
    sim.run(until=1.5)
    assert (3, 0) in network._down_links and (0, 3) in network._down_links
    assert (1, 2) not in network._down_links
    sim.run(until=2.5)
    assert not network._down_links


def test_network_kinds_require_a_network():
    sim = Simulator()
    injector = FaultInjector(sim, {0: Dummy(sim, 0), 1: Dummy(sim, 1)})
    with pytest.raises(ConfigurationError):
        injector.apply(FaultPlan.partition([0], n=2))


def test_restart_uses_rejoin_hook_or_recover():
    sim = Simulator()

    class Rejoiner(Dummy):
        def __init__(self, sim, node_id):
            super().__init__(sim, node_id)
            self.rejoined = False

        def rejoin(self):
            self.rejoined = True
            self.recover()

    replicas = {0: Rejoiner(sim, 0), 1: Dummy(sim, 1)}
    injector = FaultInjector(sim, replicas)
    plan = FaultPlan.crash_first(2, at_time=1.0).extend(FaultPlan.restart([0, 1], at_time=2.0))
    injector.apply(plan)
    sim.run(until=1.5)
    assert replicas[0].crashed and replicas[1].crashed
    sim.run(until=2.5)
    assert not replicas[0].crashed and replicas[0].rejoined
    assert not replicas[1].crashed  # plain Process falls back to recover()


def test_partition_spec_requires_peers():
    with pytest.raises(ConfigurationError):
        FaultSpec(replica_id=0, kind="partition")


def test_rejected_plan_arms_nothing():
    sim = Simulator()
    replicas = {0: Dummy(sim, 0), 1: Dummy(sim, 1)}
    injector = FaultInjector(sim, replicas)  # no network: partition is invalid
    # The plan is rejected up front and nothing is armed — not even the
    # crash that precedes the invalid spec.
    with pytest.raises(ConfigurationError):
        injector.apply(FaultPlan.crash_first(1).extend(FaultPlan.partition([1], n=2)))
    sim.run()
    assert not replicas[0].crashed
    assert injector.applied == []
