"""Clients follow the view (core/client.py): f+1 signed ``ViewNotice``s move
a client's believed primary, and each in-flight request reaches the new
primary once, without waiting for the client's retry timer."""

import dataclasses

import pytest

from helpers import assert_agreement, run_small_cluster
from repro.core.messages import ClientRequest, ViewNotice
from repro.protocols.cluster import build_cluster
from repro.sim.faults import FaultPlan
from repro.workloads.kv_workload import KVWorkload
from test_client_behaviour import CONFIG, SETUP, _make_client


def _notice(replica_id, view, signer=None):
    key = SETUP.replica_keys(replica_id if signer is None else signer).signing_key
    return ViewNotice(view=view, replica_id=replica_id, signature=key.sign(("view-notice", view)))


def _deliver(sim, network, client, *notices):
    for notice in notices:
        network.send(notice.replica_id, client.node_id, notice)
    sim.run(until=sim.now + 0.05)


def _requests_to(replica, timestamp=1):
    return sum(
        1 for message, _src in replica.received
        if isinstance(message, ClientRequest) and message.timestamp == timestamp
    )


def test_f_notices_do_not_move_the_client_and_f_plus_one_do():
    sim, network, replicas, client = _make_client()
    sim.run(until=0.05)
    _deliver(sim, network, client, *[_notice(i, 1) for i in range(1, CONFIG.f + 1)])
    assert (client.view, client._believed_primary) == (0, 0)
    _deliver(sim, network, client, _notice(CONFIG.f + 1, 1))
    assert (client.view, client._believed_primary) == (1, 1)


def test_stale_equal_and_forged_notices_are_ignored():
    sim, network, replicas, client = _make_client()
    sim.run(until=0.05)
    _deliver(sim, network, client, _notice(1, 2), _notice(2, 2))
    assert client.view == 2
    # Equal and older views from anyone, and a view-3 notice signed by
    # replica 3 under replica 1's id, leave the view where it is.
    _deliver(sim, network, client, _notice(3, 2), _notice(0, 1), _notice(3, 0))
    _deliver(sim, network, client, _notice(1, 3, signer=3), _notice(3, 3, signer=1))
    assert (client.view, client._believed_primary) == (2, 2)
    # A replica's older claim does not replace its newer one.
    assert client._view_claims[1] == 2


def test_one_replica_claiming_ever_higher_views_counts_once():
    sim, network, replicas, client = _make_client()
    sim.run(until=0.05)
    _deliver(sim, network, client, *[_notice(3, view) for view in (5, 50, 5_000, 10**6)])
    assert client.view == 0 and client._view_claims == {3: 10**6}
    # An id the deployment has no key for is never filed.
    forged = dataclasses.replace(_notice(3, 7), replica_id=99)
    _deliver(sim, network, client, forged)
    assert len(client._view_claims) <= CONFIG.n and 99 not in client._view_claims
    # A second replica at view 7: the (f+1)-th highest claim is 7, not 10**6.
    _deliver(sim, network, client, _notice(2, 7))
    assert (client.view, client._believed_primary) == (7, 7 % CONFIG.n)
    assert len(client._view_claims) == 2


def test_a_request_sent_to_the_old_primary_reaches_each_new_primary_once():
    sim, network, replicas, client = _make_client()
    sim.run(until=0.05)
    assert _requests_to(replicas[0]) == 1
    _deliver(sim, network, client, _notice(1, 1), _notice(2, 1))
    _deliver(sim, network, client, _notice(3, 1))       # a later third claim adopts nothing new
    assert [_requests_to(replica) for replica in replicas] == [1, 1, 0, 0]
    _deliver(sim, network, client, _notice(2, 2), _notice(3, 2))
    assert [_requests_to(replica) for replica in replicas] == [1, 1, 1, 0]
    assert client.stats["retries"] == 0


def test_a_request_a_retry_broadcast_covered_is_not_sent_again():
    sim, network, replicas, client = _make_client()
    sim.run(until=0.6)                                  # the retry timer (0.5 s) fired
    assert client.stats["retries"] == 1
    assert [_requests_to(replica) for replica in replicas] == [2, 1, 1, 1]
    _deliver(sim, network, client, _notice(2, 2), _notice(3, 2))
    assert client._believed_primary == 2
    assert [_requests_to(replica) for replica in replicas] == [2, 1, 1, 1]


#: The ``kv-sbft-viewchange`` benchmark shape at smoke size: the primary of
#: view 0 crashes at 1.0 s, a backup at 4.0 s.
VIEWCHANGE_TIMERS = {
    "fast_path_timeout": 0.05,
    "batch_timeout": 0.01,
    "view_change_timeout": 1.0,
    "client_retry_timeout": 1.5,
    "checkpoint_interval": 8,
}


def _viewchange_shape(protocol):
    f = 4
    faults = FaultPlan.crash_first(1, at_time=1.0).extend(FaultPlan.crash_backups(1, 3 * f + 1, at_time=4.0))
    cluster = build_cluster(
        protocol, f=f, num_clients=16, topology="continent", batch_size=8, seed=0,
        fault_plan=faults, config_overrides=dict(VIEWCHANGE_TIMERS),
    )
    late_sends = []

    def watch(src, dst, message):
        # A request to the crashed primary from a client that already
        # adopted a later view.
        if dst == 0 and isinstance(message, ClientRequest) and cluster.clients[message.client_id].view:
            late_sends.append((cluster.sim.now, src))

    cluster.post_build = lambda built: built.network.add_tap(watch)
    result = cluster.run(KVWorkload(requests_per_client=20, batch_size=8, seed=0))
    assert result.run.completed_requests == 320
    assert_agreement(cluster)
    return cluster, late_sends


@pytest.mark.parametrize("protocol", ["sbft-c0", "pbft"])
def test_after_f_plus_one_notices_no_client_sends_to_the_crashed_primary(protocol):
    cluster, late_sends = _viewchange_shape(protocol)
    assert late_sends == []
    assert {client.view for client in cluster.clients.values()} == {1}
    assert all(client._believed_primary == 1 for client in cluster.clients.values())


def test_stranded_requests_complete_without_a_client_retry():
    """The view change ends before the retry timer of any request the
    crashed primary swallowed: no retry fires and every latency stays below
    ``client_retry_timeout`` (the parent tree: 16 retries, 1.76 s)."""
    cluster, _late_sends = _viewchange_shape("sbft-c0")
    assert sum(client.stats["retries"] for client in cluster.clients.values()) == 0
    latencies = [latency for _at, latency, _ops in cluster.recorder._completions]
    assert max(latencies) < VIEWCHANGE_TIMERS["client_retry_timeout"]


@pytest.mark.parametrize("protocol", ["sbft-c0", "pbft"])
def test_view_notice_is_signed_once_per_view_entry_and_sent_to_every_client(protocol):
    """Each live replica signs one notice per view it enters; every client
    receives one from each of them."""
    notices = []
    cluster, result = run_small_cluster(
        protocol, f=1, num_clients=3, requests_per_client=4, topology="continent",
        fault_plan=FaultPlan.crash_first(1, at_time=0.05),
        config_overrides={"view_change_timeout": 0.5, "client_retry_timeout": 1.0},
        post_build=lambda built: built.network.add_tap(
            lambda src, dst, message: notices.append((src, dst, message.view))
            if isinstance(message, ViewNotice) else None
        ),
    )
    assert result.run.completed_requests == 12
    live = [i for i, replica in cluster.replicas.items() if not replica.crashed]
    clients = sorted(client.node_id for client in cluster.clients.values())
    assert sorted(notices) == sorted((src, dst, 1) for src in live for dst in clients)


def test_a_run_without_a_view_change_sends_no_notice():
    sent = []
    cluster, _result = run_small_cluster(
        "sbft-c0", f=1, num_clients=2, requests_per_client=4,
        post_build=lambda built: built.network.add_tap(
            lambda src, dst, message: sent.append(message) if isinstance(message, ViewNotice) else None
        ),
    )
    assert sent == []
