"""Integration tests for view changes, Byzantine primaries and state transfer."""


from helpers import assert_agreement, run_small_cluster
from repro.adversary.behaviours import bad_shares, equivocate, silent
from repro.sim.faults import FaultPlan


def _agg(result, key):
    return sum(stats.get(key, 0) for stats in result.replica_stats.values())


def _max_view(cluster):
    return max(replica.view for replica in cluster.replicas.values() if not replica.crashed)


def test_primary_crash_triggers_view_change_and_liveness():
    plan = FaultPlan.crash_first(1, at_time=0.0)  # replica 0 is the view-0 primary
    cluster, result = run_small_cluster(
        "sbft-c0",
        f=1,
        num_clients=2,
        requests_per_client=4,
        fault_plan=plan,
        config_overrides={"view_change_timeout": 0.5, "client_retry_timeout": 1.0},
        max_sim_time=120.0,
    )
    assert result.run.completed_requests == 8
    assert _max_view(cluster) >= 1
    assert _agg(result, "view_changes") > 0
    assert_agreement(cluster)


def test_silent_primary_is_replaced():
    plan = FaultPlan.byzantine([0], silent, at_time=0.0)
    cluster, result = run_small_cluster(
        "sbft-c0",
        f=1,
        num_clients=2,
        requests_per_client=4,
        fault_plan=plan,
        config_overrides={"view_change_timeout": 0.5, "client_retry_timeout": 1.0},
        max_sim_time=120.0,
    )
    assert result.run.completed_requests == 8
    assert _max_view(cluster) >= 1
    assert_agreement(cluster)


def test_equivocating_primary_cannot_break_agreement():
    """A primary that proposes conflicting blocks to different replicas must
    not cause two correct replicas to execute different blocks for the same
    sequence number (safety), and the system must eventually make progress."""
    plan = FaultPlan.byzantine([0], equivocate, at_time=0.0)
    cluster, result = run_small_cluster(
        "sbft-c0",
        f=1,
        num_clients=2,
        requests_per_client=3,
        fault_plan=plan,
        config_overrides={"view_change_timeout": 0.5, "client_retry_timeout": 1.0},
        max_sim_time=180.0,
    )
    assert_agreement(cluster)
    assert result.run.completed_requests == 6


def test_backup_sending_bad_shares_is_filtered_out():
    """Robust threshold verification: invalid shares from one Byzantine backup
    are dropped by collectors; with c=0 the bad replica simply counts as the
    one tolerated fault and the slow path is used."""
    plan = FaultPlan.byzantine([3], bad_shares, at_time=0.0)
    cluster, result = run_small_cluster(
        "sbft-c0", f=1, num_clients=2, requests_per_client=4, fault_plan=plan
    )
    assert result.run.completed_requests == 8
    assert_agreement(cluster)


def test_view_change_then_new_primary_keeps_processing_new_requests():
    plan = FaultPlan.crash_first(1, at_time=0.0)
    cluster, result = run_small_cluster(
        "sbft-c0",
        f=1,
        num_clients=2,
        requests_per_client=6,
        fault_plan=plan,
        config_overrides={"view_change_timeout": 0.5, "client_retry_timeout": 1.0},
        max_sim_time=180.0,
    )
    assert result.run.completed_requests == 12
    new_primary = 1  # view 1 primary
    assert cluster.replicas[new_primary].stats["blocks_proposed"] > 0
    assert_agreement(cluster)


def test_exponential_backoff_attempts_do_not_prevent_recovery():
    """Even with a very small initial timeout (many premature suspicions), the
    cluster converges to a working view and completes the workload."""
    plan = FaultPlan.crash_first(1, at_time=0.0)
    cluster, result = run_small_cluster(
        "sbft-c0",
        f=1,
        num_clients=2,
        requests_per_client=3,
        fault_plan=plan,
        config_overrides={"view_change_timeout": 0.2, "client_retry_timeout": 0.8},
        max_sim_time=180.0,
    )
    assert result.run.completed_requests == 6
    assert_agreement(cluster)


def test_a_snapshot_restored_into_a_fresh_service_takes_its_donor_digest():
    """After a run, a fresh service restored by hand from one replica's
    snapshot takes that replica's digest.  Catch-up through the
    state-transfer messages is covered by
    ``test_fault_sweep::test_restart_rejoin_reaches_cluster_chain_digest`` and
    ``test_checkpoint_state_transfer::test_state_transfer_request_response_roundtrip``."""
    cluster, result = run_small_cluster(
        "sbft-c0",
        f=1,
        num_clients=2,
        requests_per_client=6,
        config_overrides={"window": 8},
    )
    source = cluster.replicas[1]
    assert source.last_executed > 0
    target = type(source.service)()
    assert target.digest() != source.service.digest()
    target.restore(source.service.snapshot())
    assert target.digest() == source.service.digest()


def test_entering_a_view_drops_what_was_collected_for_it_in_both_stacks():
    """After one primary crash every live replica of either stack holds no
    view-change bucket, and no new-view mark, at or below its view."""
    for protocol in ("sbft-c0", "pbft"):
        cluster, result = run_small_cluster(
            protocol, f=1, requests_per_client=4,
            fault_plan=FaultPlan.crash_first(1, at_time=0.0),
            config_overrides={"view_change_timeout": 0.5, "client_retry_timeout": 1.0},
        )
        assert result.run.completed_requests == 8 and _max_view(cluster) >= 1
        for replica in cluster.replicas.values():
            if not replica.crashed:
                assert [view for view in replica._view_changes if view <= replica.view] == []
                assert {view for view in replica._new_view_sent_for if view <= replica.view} == set()
