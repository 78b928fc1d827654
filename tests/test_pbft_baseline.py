"""Integration tests for the scale-optimized PBFT baseline."""

import pytest

from helpers import assert_agreement, run_small_cluster
from repro.sim.faults import FaultPlan


def _agg(result, key):
    return sum(stats.get(key, 0) for stats in result.replica_stats.values())


def test_pbft_completes_workload_and_agrees():
    cluster, result = run_small_cluster("pbft", f=1, num_clients=2, requests_per_client=6)
    assert result.run.completed_requests == 12
    assert _agg(result, "blocks_executed") > 0
    assert_agreement(cluster)


def test_pbft_uses_all_to_all_votes():
    cluster, result = run_small_cluster("pbft", f=1, num_clients=2, requests_per_client=4)
    types = result.per_type_messages
    assert types.get("pbft-prepare", 0) > 0
    assert types.get("pbft-commit", 0) > 0
    # No SBFT collector traffic.
    assert "sign-share" not in types
    assert "full-commit-proof" not in types
    # Clients are served by f+1 signed replies.
    assert types.get("client-reply", 0) >= (1 + 1) * result.run.completed_requests


def test_pbft_quadratic_vs_sbft_linear_message_complexity():
    """Ingredient 1's point: per committed block PBFT sends O(n^2) protocol
    messages while SBFT sends O(n); even at n=7 the gap is visible."""
    _, pbft = run_small_cluster("pbft", f=2, num_clients=2, requests_per_client=4, batch_size=2)
    _, sbft = run_small_cluster("sbft-c0", f=2, num_clients=2, requests_per_client=4, batch_size=2)
    pbft_votes = pbft.per_type_messages["pbft-prepare"] + pbft.per_type_messages["pbft-commit"]
    sbft_votes = (
        sbft.per_type_messages.get("sign-share", 0)
        + sbft.per_type_messages.get("full-commit-proof", 0)
    )
    blocks_pbft = max(stats["blocks_executed"] for stats in pbft.replica_stats.values())
    blocks_sbft = max(stats["blocks_executed"] for stats in sbft.replica_stats.values())
    assert pbft_votes / max(1, blocks_pbft) > 2 * sbft_votes / max(1, blocks_sbft)


def test_pbft_tolerates_f_crashed_backups():
    plan = FaultPlan.crash_backups(1, n=4)
    cluster, result = run_small_cluster("pbft", f=1, num_clients=2, requests_per_client=4, fault_plan=plan)
    assert result.run.completed_requests == 8
    assert_agreement(cluster)


def test_pbft_survives_primary_crash_via_view_change():
    plan = FaultPlan.crash_first(1, at_time=0.0)
    cluster, result = run_small_cluster(
        "pbft",
        f=1,
        num_clients=2,
        requests_per_client=4,
        fault_plan=plan,
        config_overrides={"view_change_timeout": 0.5, "client_retry_timeout": 1.0},
        max_sim_time=180.0,
    )
    assert result.run.completed_requests == 8
    assert max(r.view for r in cluster.replicas.values() if not r.crashed) >= 1
    assert_agreement(cluster)


@pytest.mark.parametrize("protocol", ["sbft-c0", "pbft"])
def test_primary_crash_mid_run_on_a_wan_completes_with_agreement(protocol):
    """Primary crash at 50 ms on ``continent`` with a view-change timeout
    below the client retry timeout: both stacks recover.  The PBFT baseline
    used to end with 4 of 24 requests (replicas 2 and 3 stuck at block 3):
    the new primary's re-proposals overtook its new-view message and were
    dropped, and a committed slot took a later view's re-proposal.  Replicas
    now keep a later view's pre-prepares until they enter it, and a committed
    block stays (ROADMAP item 2)."""
    cluster, result = run_small_cluster(
        protocol,
        f=1,
        num_clients=4,
        requests_per_client=6,
        topology="continent",
        seed=0,
        fault_plan=FaultPlan.crash_first(1, at_time=0.05),
        config_overrides={"view_change_timeout": 0.5, "client_retry_timeout": 1.0},
        max_sim_time=180,
    )
    assert result.run.completed_requests == 24
    assert_agreement(cluster)


@pytest.mark.parametrize("protocol", ["sbft-c0", "pbft"])
@pytest.mark.parametrize("topology", ["continent", "lan"])
@pytest.mark.parametrize("view_change_timeout,client_retry_timeout", [(0.5, 1.0), (1.0, 1.5), (2.0, 1.0)])
def test_primary_crash_grid_completes_with_agreement(
        protocol, topology, view_change_timeout, client_retry_timeout):
    """The same crash over six seeds, both topologies and three timeout
    pairs (ROADMAP item 2's grid): every run completes all 24 requests.  The
    PBFT baseline completed 27 of these 36 runs before replicas kept a later
    view's pre-prepares and committed slots kept their blocks."""
    for seed in range(6):
        cluster, result = run_small_cluster(
            protocol, f=1, num_clients=4, requests_per_client=6, topology=topology, seed=seed,
            fault_plan=FaultPlan.crash_first(1, at_time=0.05),
            config_overrides={"view_change_timeout": view_change_timeout,
                              "client_retry_timeout": client_retry_timeout},
            max_sim_time=120,
        )
        assert result.run.completed_requests == 24, seed
        assert_agreement(cluster)


@pytest.mark.parametrize("protocol", ["sbft-c0", "pbft"])
def test_two_consecutive_crashed_primaries_escalate_to_view_two(protocol):
    """f=2: the primaries of views 0 and 1 both crash.  A replica whose view
    change to 1 times out asks for view 2 (ROADMAP item 2 (iv)); it used to
    repeat its request for view 1, a no-op, and the run wedged at view 0
    with 4 (``pbft``) and 0 (``sbft-c0``) of 24 requests done."""
    cluster, result = run_small_cluster(
        protocol, f=2, num_clients=4, requests_per_client=6, topology="continent", seed=0,
        fault_plan=FaultPlan.crash_first(2, at_time=0.05),
        config_overrides={"view_change_timeout": 1.0, "client_retry_timeout": 1.5},
        max_sim_time=60,
    )
    assert result.run.completed_requests == 24
    assert max(r.view for r in cluster.replicas.values() if not r.crashed) == 2
    assert_agreement(cluster)


def test_pbft_checkpoint_garbage_collects_log():
    cluster, result = run_small_cluster(
        "pbft",
        f=1,
        num_clients=2,
        requests_per_client=8,
        batch_size=1,
        config_overrides={"window": 8, "checkpoint_interval": 2},
    )
    replica = cluster.replicas[1]
    assert replica.last_stable > 0
    # Old slots far below the stable point were dropped.
    assert min(slot.sequence for slot in replica.log.slots()) > replica.last_stable - replica.config.window - 1
