"""Integration tests for the SBFT replica: fast path, fallback, execution.

These run small end-to-end clusters through the public harness and assert on
the protocol-internal statistics (fast vs slow commits, message types on the
wire) as well as client-visible outcomes.
"""


from helpers import assert_agreement, run_small_cluster
from repro.sim.faults import FaultPlan


def _agg(result, key):
    return sum(stats.get(key, 0) for stats in result.replica_stats.values())


def test_fast_path_commits_all_blocks_without_failures():
    cluster, result = run_small_cluster("sbft-c0", f=1, num_clients=2, requests_per_client=6)
    assert result.run.completed_requests == 12
    assert _agg(result, "blocks_committed_fast") > 0
    assert _agg(result, "blocks_committed_slow") == 0
    assert _agg(result, "view_changes") == 0
    assert_agreement(cluster)


def test_fast_path_uses_collector_messages_not_all_to_all():
    cluster, result = run_small_cluster("sbft-c0", f=1, num_clients=2, requests_per_client=4)
    types = result.per_type_messages
    assert "sign-share" in types and "full-commit-proof" in types
    # The linear path messages must not appear in a failure-free fast-path run.
    assert "prepare" not in types
    assert "commit" not in types
    # Clients get single execute-acks, not f+1 replies.
    assert types.get("execute-ack", 0) >= result.run.completed_requests
    assert types.get("client-reply", 0) == 0


def test_clients_receive_correct_values():
    cluster, result = run_small_cluster("sbft-c0", f=1, num_clients=2, requests_per_client=4, kv_batch=3)
    for client in cluster.clients.values():
        assert client.done
        assert client.completed == 4
        # Every KV put in this workload returns True.
        for values in client.accepted_values:
            assert all(value is True for value in values)
        assert client.stats["acks_rejected"] == 0
        assert client.stats["retries"] == 0


def test_crashed_backup_forces_slow_path_when_c_is_zero():
    plan = FaultPlan.crash_backups(1, n=4)
    cluster, result = run_small_cluster("sbft-c0", f=1, num_clients=2, requests_per_client=4, fault_plan=plan)
    assert result.run.completed_requests == 8
    assert _agg(result, "blocks_committed_slow") > 0
    assert _agg(result, "blocks_committed_fast") == 0
    assert_agreement(cluster)


def test_redundant_servers_keep_fast_path_under_crash():
    """Ingredient 4: with c=1 a single crashed backup does not disable the fast path."""
    plan = FaultPlan.crash_backups(1, n=6)
    cluster, result = run_small_cluster(
        "sbft-c8", f=1, c=1, num_clients=2, requests_per_client=4, fault_plan=plan
    )
    assert result.run.completed_requests == 8
    assert _agg(result, "blocks_committed_fast") > 0
    assert _agg(result, "blocks_committed_slow") == 0
    assert_agreement(cluster)


def test_linear_pbft_variant_uses_slow_path_only():
    cluster, result = run_small_cluster("linear-pbft", f=1, num_clients=2, requests_per_client=4)
    types = result.per_type_messages
    assert "prepare" in types and "commit" in types and "full-commit-proof-slow" in types
    assert "full-commit-proof" not in types
    # Without execution collectors clients are answered with signed replies.
    assert types.get("client-reply", 0) > 0
    assert types.get("execute-ack", 0) == 0
    assert_agreement(cluster)


def test_linear_pbft_fast_falls_back_per_slot_not_per_view():
    """With a crashed backup and c=0 the fast path cannot complete, but the
    same view keeps committing through the linear path (no view change)."""
    plan = FaultPlan.crash_backups(1, n=4)
    cluster, result = run_small_cluster(
        "linear-pbft-fast", f=1, num_clients=2, requests_per_client=4, fault_plan=plan
    )
    assert result.run.completed_requests == 8
    assert _agg(result, "blocks_committed_slow") > 0
    assert _agg(result, "view_changes") == 0
    assert_agreement(cluster)


def test_all_correct_replicas_execute_identical_state():
    cluster, result = run_small_cluster("sbft-c0", f=1, num_clients=3, requests_per_client=5, kv_batch=2)
    digests = set()
    executed = set()
    for replica in cluster.replicas.values():
        digests.add(replica.service.digest())
        executed.add(replica.last_executed)
    assert len(digests) == 1
    assert len(executed) == 1


def test_throughput_and_latency_are_positive_and_consistent():
    cluster, result = run_small_cluster("sbft-c0", f=1, num_clients=2, requests_per_client=5)
    assert result.throughput > 0
    assert 0 < result.mean_latency < 5.0
    assert result.run.median_latency <= result.run.p99_latency
    assert result.network_bytes > 0


def test_larger_configuration_with_c_collectors():
    """f=2, c=1 (n=10): several collectors per slot, still agrees and completes."""
    cluster, result = run_small_cluster(
        "sbft-c8", f=2, c=1, num_clients=3, requests_per_client=3, batch_size=3
    )
    assert result.run.completed_requests == 9
    assert _agg(result, "blocks_committed_fast") > 0
    assert_agreement(cluster)
