"""Tests for the fault-sweep experiment subsystem and the recovery paths.

Covers the acceptance behaviours of the performance-under-failure sweep:
fixed-seed determinism (serial vs ``--jobs 2``), restart-rejoin reaching the
cluster's chain digest, partition-heal resuming client completion, windowed
timelines / phase aggregates on the rows, and the stale-viewchange adversary.
"""

import pytest

from helpers import assert_agreement
from repro.adversary.behaviours import bad_shares, stale_view_change
from repro.errors import ConfigurationError
from repro.experiments import harness
from repro.experiments.fault_sweep import CONFIG_OVERRIDES, SCENARIOS, SWEEP, SWEEP_SCALES, grid
from repro.protocols.cluster import build_cluster
from repro.sim.faults import FaultInjector, FaultPlan
from repro.workloads.kv_workload import KVWorkload

SMALL = SWEEP_SCALES["small"]


def _run_scenario(protocol, scenario_name, seed=0):
    scenario = SCENARIOS[scenario_name]
    plan = scenario.build_plan(protocol, 4, 1, 0)
    cluster = build_cluster(
        protocol,
        f=1,
        num_clients=SMALL["clients"],
        topology="continent",
        batch_size=SMALL["block_batch"],
        seed=seed,
        fault_plan=plan,
        config_overrides=dict(CONFIG_OVERRIDES),
    )
    workload = KVWorkload(
        requests_per_client=SMALL["requests"], batch_size=SMALL["kv_batch"], seed=seed + 1
    )
    result = cluster.run(
        workload,
        max_sim_time=SMALL["max_sim_time"],
        timeline_bucket=0.25,
        fault_phase=(scenario.fault_start, scenario.fault_end),
    )
    return cluster, result


def _stable(rows):
    """Strip the host-clock keys (they vary run to run)."""
    return [{k: v for k, v in row.items() if k not in harness.HOST_FIELDS} for row in rows]


# ----------------------------------------------------------------------
# Sweep rows: timelines, phases, determinism
# ----------------------------------------------------------------------
def test_sweep_rows_carry_timeline_and_phases():
    rows = harness.run(
        SWEEP, grid(scale_name="small", protocols=["sbft-c0"], scenarios=["crash-backups"], seed=0)
    )
    assert len(rows) == 1
    row = rows[0]
    assert row["all_completed"]
    assert row["recovered"], "post-fault throughput must be > 0 (linear-PBFT fallback)"
    assert row["faults_fired"] == row["faults_planned"] > 0
    # Windowed timeline: contiguous buckets covering the run.
    timeline = row["timeline"]
    assert len(timeline) >= 8
    assert timeline[0]["t_start"] == 0.0
    for earlier, later in zip(timeline, timeline[1:]):
        assert later["t_start"] == pytest.approx(earlier["t_end"])
    assert sum(bucket["completed_operations"] for bucket in timeline) == row["completed_operations"]
    # Phase aggregates: healthy before, degraded-but-live after.
    phases = row["phases"]
    assert phases["before"]["throughput_ops"] > 0
    assert phases["after"]["throughput_ops"] > 0
    assert phases["before"]["t_end"] == row["fault_start"]
    assert phases["during"]["t_end"] == row["fault_end"]


def test_sweep_fixed_seed_rows_identical_serial_vs_jobs():
    points = grid(
        scale_name="small",
        protocols=["sbft-c0"],
        scenarios=["crash-backups", "partition-heal"],
        seed=3,
    )
    serial = harness.run(SWEEP, points, jobs=1)
    parallel = harness.run(SWEEP, points, jobs=2)
    assert _stable(serial) == _stable(parallel)


def test_sweep_rejects_unknown_scenario_and_scale():
    with pytest.raises(ConfigurationError):
        grid(scenarios=["meteor-strike"])
    with pytest.raises(ConfigurationError):
        grid(scale_name="galactic")


def test_fault_point_smoke():
    (point,) = grid(protocols=["sbft-c0"], scenarios=["slow-stragglers"], seed=0)
    result = harness.run_point(point)
    assert result.run.timeline is not None
    assert result.run.phases is not None
    assert result.run.completed_requests == SMALL["clients"] * SMALL["requests"]


# ----------------------------------------------------------------------
# Recovery scenarios
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", ["sbft-c0", "pbft"])
def test_restart_rejoin_reaches_cluster_chain_digest(protocol):
    cluster, result = _run_scenario(protocol, "crash-restart")
    expected = SMALL["clients"] * SMALL["requests"]
    assert result.run.completed_requests >= expected
    digests = {replica.service.digest() for replica in cluster.replicas.values()}
    assert len(digests) == 1, "restarted replicas must re-sync to the cluster digest"
    assert all(not replica.crashed for replica in cluster.replicas.values())
    restarted = cluster.replicas[3]
    assert restarted.stats["state_transfers"] >= 1
    assert restarted.last_executed == cluster.replicas[0].last_executed
    assert_agreement(cluster)


@pytest.mark.parametrize("protocol", ["sbft-c0", "pbft"])
def test_partition_heal_resumes_client_completion(protocol):
    cluster, result = _run_scenario(protocol, "partition-heal")
    expected = SMALL["clients"] * SMALL["requests"]
    assert result.run.completed_requests >= expected
    # The minority replica catches back up after the heal.
    digests = {replica.service.digest() for replica in cluster.replicas.values()}
    assert len(digests) == 1
    assert result.run.phases["after"]["throughput_ops"] > 0
    assert_agreement(cluster)


def test_faulty_primary_scenario_recovers_via_view_change():
    cluster, result = _run_scenario("sbft-c0", "faulty-primary")
    expected = SMALL["clients"] * SMALL["requests"]
    assert result.run.completed_requests >= expected
    views = [replica.view for replica in cluster.replicas.values() if not replica.crashed]
    assert max(views) > 0, "a view change must have happened"
    assert result.run.phases["after"]["throughput_ops"] > 0
    assert_agreement(cluster)


# ----------------------------------------------------------------------
# Behaviour/protocol mismatch and the stale-viewchange adversary
# ----------------------------------------------------------------------
def test_bad_shares_fault_on_pbft_raises_naming_the_replica_class():
    # PBFT has no threshold shares to corrupt, so bad-shares stays SBFT-only.
    cluster, _result = _run_scenario("pbft", "crash-backups")
    injector = FaultInjector(cluster.sim, cluster.replicas, network=cluster.network)
    injector.apply(FaultPlan.byzantine([0], bad_shares, at_time=0.0))
    with pytest.raises(ConfigurationError, match="PBFTReplica"):
        cluster.sim.run()


def test_pbft_stale_viewchange_builds_empty_outdated_evidence():
    cluster, _result = _run_scenario("pbft", "crash-backups")
    replica = cluster.replicas[1]
    assert replica.last_stable > 0  # it really has something to withhold
    stale_view_change(replica)
    message = replica.build_view_change(replica.view + 1)
    assert message.last_stable == 0
    assert message.prepared == ()
    # The lie is validly signed: accountability evidence, not a forgery.
    key = replica.verify_keys[replica.node_id]
    assert key.verify(("view-change", message.new_view, 0), message.signature)


def test_stale_viewchange_replica_sends_empty_outdated_evidence():
    cluster, _result = _run_scenario("sbft-c0", "crash-backups")
    replica = cluster.replicas[1]
    assert replica.last_stable > 0  # it really has something to withhold
    stale_view_change(replica)
    message = replica.build_view_change(replica.view + 1)
    assert message.last_stable == 0
    assert message.stable_proof is None
    assert message.slots == ()


def test_injector_activates_stale_viewchange_mid_run():
    # LAN runs are fast (all 16 requests finish by 0.045 s): crash the primary
    # and activate the behaviour early enough that requests are in flight.
    plan = FaultPlan.crash_first(1, at_time=0.02).extend(
        FaultPlan.byzantine([3], stale_view_change, at_time=0.01)
    )
    cluster = build_cluster(
        "sbft-c0",
        f=1,
        num_clients=2,
        topology="lan",
        batch_size=2,
        seed=0,
        fault_plan=plan,
        config_overrides=dict(CONFIG_OVERRIDES),
    )
    workload = KVWorkload(requests_per_client=8, batch_size=2, seed=1)
    result = cluster.run(workload, max_sim_time=60.0)
    # Liveness through the view change despite one stale-viewchange backup.
    assert result.run.completed_requests == 16
    assert cluster.replicas[3].build_view_change(9).slots == ()
    assert max(r.view for r in cluster.replicas.values() if not r.crashed) > 0
    assert_agreement(cluster)
