"""Tests for the throughput grid's ``faults`` panel and the recovery paths.

Covers the acceptance behaviours of the performance-under-failure panel:
restart-rejoin reaching the cluster's chain digest, partition-heal resuming
client completion, windowed timelines / phase aggregates on the rows, and
the stale-viewchange adversary.  Serial vs ``--jobs 2`` determinism is one
case of ``tests/test_experiments.py::test_worker_processes_produce_the_serial_rows``.
"""

import json
from pathlib import Path

import pytest

from helpers import assert_agreement, fault_point
from repro.adversary.behaviours import bad_shares, stale_view_change
from repro.errors import ConfigurationError
from repro.experiments import harness, throughput
from repro.experiments.harness import point_cluster
from repro.experiments.throughput import SWEEP
from repro.protocols.cluster import build_cluster
from repro.sim.faults import FaultInjector, FaultPlan
from repro.workloads.kv_workload import KVWorkload

FAULTS = throughput.panel("small", "faults")
BASELINE = Path(__file__).resolve().parents[1] / "BENCH_throughput.json"


def _run_scenario(protocol, scenario_name, seed=0):
    point = fault_point(scenario_name, protocol, seed)
    cluster = point_cluster(point)
    result = cluster.run(
        point.workload.build(point),
        max_sim_time=point.max_sim_time,
        timeline_bucket=point.timeline_bucket,
        fault_phase=point.fault_phase,
    )
    return cluster, result


# ----------------------------------------------------------------------
# Panel rows: timelines, phases
# ----------------------------------------------------------------------
def test_sweep_rows_carry_timeline_and_phases():
    rows = harness.run(SWEEP, [fault_point("crash-backups")])
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


def test_fault_point_smoke():
    point = fault_point("slow-stragglers")
    result = harness.run_point(point)
    assert result.run.timeline is not None
    assert result.run.phases is not None
    assert result.run.completed_requests == point.clients * point.workload.requests


# ----------------------------------------------------------------------
# Recovery scenarios
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", ["sbft-c0", "pbft"])
def test_restart_rejoin_reaches_cluster_chain_digest(protocol):
    cluster, result = _run_scenario(protocol, "crash-restart")
    expected = FAULTS.clients[0] * FAULTS.workloads[0].requests
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
    expected = FAULTS.clients[0] * FAULTS.workloads[0].requests
    assert result.run.completed_requests >= expected
    # The minority replica catches back up after the heal.
    digests = {replica.service.digest() for replica in cluster.replicas.values()}
    assert len(digests) == 1
    assert result.run.phases["after"]["throughput_ops"] > 0
    assert_agreement(cluster)


def test_faulty_primary_scenario_recovers_via_view_change():
    cluster, result = _run_scenario("sbft-c0", "faulty-primary")
    expected = FAULTS.clients[0] * FAULTS.workloads[0].requests
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
        config_overrides=FAULTS.overrides,
    )
    workload = KVWorkload(requests_per_client=8, batch_size=2, seed=1)
    result = cluster.run(workload, max_sim_time=60.0)
    # Liveness through the view change despite one stale-viewchange backup.
    assert result.run.completed_requests == 16
    assert cluster.replicas[3].build_view_change(9).slots == ()
    assert max(r.view for r in cluster.replicas.values() if not r.crashed) > 0
    assert_agreement(cluster)


def test_committed_faulty_primary_p99_is_below_the_client_retry_timeout():
    """Gated data: in the committed ``sbft-c0`` faulty-primary row, the
    requests the crashed primary swallowed complete when the view change
    ends (clients follow the view), not when the client retry timer fires.
    It read 1 790.16 ms against the 1.5 s timeout before clients followed
    the view."""
    rows = {row["name"]: row["extra_info"] for row in json.loads(BASELINE.read_text())["benchmarks"]}
    row = rows[f"throughput[{fault_point('faulty-primary').label}]"]
    assert row["p99_latency_ms"] < 1000.0 * FAULTS.overrides["client_retry_timeout"]
