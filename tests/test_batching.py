"""Batching-policy and pipelined-client tests.

Covers the adaptive batching layer (``SBFTConfig.batch_policy``): the
``fixed`` policy must reproduce the pre-policy behaviour byte-for-byte for
fixed seeds (the ``RUNS`` goldens of tests/contract.py predate the policy
layer), while ``adaptive`` must hold requests back under load and drain the
queue into large blocks bounded by ``effective_batch_max``.  Also covers the batching
edge cases that existed before this layer — the batch-timeout flush of a
partial batch and the batch timer vs. view-change interleaving — and the
pipelined client (``client_max_outstanding > 1``).
"""

import itertools

import pytest

import contract
from helpers import make_bare_replica, make_request, run_small_cluster, unshare
from repro.adversary.behaviours import silent
from repro.core.config import SBFTConfig
from repro.core import runtime
from repro.core.messages import PrePrepare
from repro.core.replica import SBFTReplica
from repro.core.viewchange import NewViewPlan
from repro.errors import ConfigurationError
from repro.pbft.replica import PBFTReplica
from repro.protocols.cluster import build_cluster
from repro.sim.faults import FaultPlan
from repro.workloads.kv_workload import KVWorkload
from test_client_behaviour import _executed_ack_for, _make_client


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------
def test_batch_policy_validation():
    assert SBFTConfig(f=1, batch_policy="adaptive").batch_policy == "adaptive"
    with pytest.raises(ConfigurationError):
        SBFTConfig(f=1, batch_policy="magic")
    with pytest.raises(ConfigurationError):
        SBFTConfig(f=1, client_max_outstanding=0)


def test_effective_batch_max_is_64_or_four_batches():
    assert SBFTConfig(f=1, batch_size=4).effective_batch_max == 64
    assert SBFTConfig(f=1, batch_size=32).effective_batch_max == 128


def test_describe_mentions_adaptive_policy():
    text = SBFTConfig(f=1, batch_size=4, batch_policy="adaptive").describe()
    assert "adaptive" in text
    assert "adaptive" not in SBFTConfig(f=1, batch_size=4).describe()


# ----------------------------------------------------------------------
# Golden determinism (the goldens themselves: tests/test_contract.py)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["sbft-c0-seed11", "pbft-seed11"], ids=["sbft-c0", "pbft"])
def test_unshared_replay_sees_a_stash_that_depends_on_how_often_it_was_computed(
    name, monkeypatch
):
    """The differential fails demonstrably: salt the stashed block cost with
    a call counter — nothing an AST model of "memo" identifiers can see — and
    the shared run (one computation per block, every replica reads it) and the
    unshared run (one per replica) no longer decide the same thing."""
    real = runtime.block_execution_plan
    protocol, kwargs = contract.GOLDENS[name]

    def decided(post_build):
        calls = itertools.count()  # per run: only *sharing* differs between the two

        def salted(pre_prepare, service, costs):
            if pre_prepare._exec_plan is not None:
                return real(pre_prepare, service, costs)
            operations, cost = real(pre_prepare, service, costs)
            cost += 1e-6 * (next(calls) % 7)
            object.__setattr__(
                pre_prepare, "_exec_plan", (type(service), costs, operations, cost)
            )
            return operations, cost

        monkeypatch.setattr(runtime, "block_execution_plan", salted)
        return contract.golden(protocol, post_build=post_build, **kwargs)

    assert decided(None) != decided(unshare)


def test_explicit_fixed_policy_matches_default():
    """batch_policy="fixed" spelled out is the same code path as the default."""
    protocol, kwargs = contract.GOLDENS["sbft-c0-seed11"]
    explicit = contract.golden(protocol, config_overrides={"batch_policy": "fixed"}, **kwargs)
    assert explicit == contract.committed()["golden"]["sbft-c0-seed11"]


# ----------------------------------------------------------------------
# Unit-level batching behaviour (proposals captured off a live replica)
# ----------------------------------------------------------------------
_REPLICA_CLASSES = {"sbft": SBFTReplica, "pbft": PBFTReplica}


def _make_primary(config, replica_cls="sbft"):
    """A registered primary whose outgoing broadcasts are captured, not sent."""
    sim, _network, replica = make_bare_replica(_REPLICA_CLASSES[replica_cls], config)
    captured = []
    replica._broadcast = captured.append
    return sim, replica, captured


_request = make_request


def _feed(replica, requests):
    client_node = replica.config.n + 1
    for request in requests:
        replica._on_client_request(request, src=client_node)


def _proposed_blocks(captured):
    return [m for m in captured if isinstance(m, PrePrepare)]


@pytest.mark.parametrize("kind", ["sbft", "pbft"])
def test_fixed_policy_proposes_batch_size_blocks(kind):
    config = SBFTConfig(f=1, batch_size=2, batch_timeout=0.01)
    sim, replica, captured = _make_primary(config, kind)
    _feed(replica, [_request(t) for t in range(1, 5)])
    blocks = _proposed_blocks(captured)
    assert [len(b.requests) for b in blocks] == [2, 2]


@pytest.mark.parametrize("kind", ["sbft", "pbft"])
def test_batch_timeout_flushes_partial_batch(kind):
    """batch_size > pending: the timer flushes whatever queued, not nothing."""
    config = SBFTConfig(f=1, batch_size=8, batch_timeout=0.01)
    sim, replica, captured = _make_primary(config, kind)
    _feed(replica, [_request(t) for t in range(1, 4)])
    assert not _proposed_blocks(captured)          # below batch_size: timer armed
    assert replica._batch_timer is not None
    sim.run(until=0.05)
    blocks = _proposed_blocks(captured)
    assert [len(b.requests) for b in blocks] == [3]
    assert replica._batch_timer is None


@pytest.mark.parametrize("kind", ["sbft", "pbft"])
def test_adaptive_policy_drains_queue_into_large_blocks(kind):
    config = SBFTConfig(f=1, batch_size=2, batch_policy="adaptive", batch_timeout=0.01)
    sim, replica, captured = _make_primary(config, kind)
    # Idle pipeline: the first two requests propose at the batch_size minimum.
    _feed(replica, [_request(1), _request(2)])
    assert [len(b.requests) for b in _proposed_blocks(captured)] == [2]
    # Pipeline busy (block 1 not executed): requests accumulate past
    # batch_size instead of streaming out in minimum-size blocks...
    _feed(replica, [_request(t) for t in range(3, 8)])
    assert len(_proposed_blocks(captured)) == 1
    # ...until the batch timer flushes the whole queue as one block.
    sim.run(until=0.05)
    assert [len(b.requests) for b in _proposed_blocks(captured)] == [2, 5]
    # A queue reaching effective_batch_max (64) proposes immediately, capped
    # at it: 65 queued requests leave one behind.
    _feed(replica, [_request(t) for t in range(8, 73)])
    blocks = _proposed_blocks(captured)
    assert len(blocks) == 3
    assert len(blocks[2].requests) == 64


def test_adaptive_resumes_minimum_batches_when_idle():
    config = SBFTConfig(f=1, batch_size=2, batch_policy="adaptive", batch_timeout=0.01)
    sim, replica, captured = _make_primary(config)
    _feed(replica, [_request(1), _request(2)])
    assert len(_proposed_blocks(captured)) == 1
    # Simulate the block completing: pipeline idle again.
    replica.last_executed = 1
    _feed(replica, [_request(3), _request(4)])
    assert [len(b.requests) for b in _proposed_blocks(captured)] == [2, 2]


# ----------------------------------------------------------------------
# Batch timer vs view change interleaving
# ----------------------------------------------------------------------
def test_stale_batch_timer_does_not_propose_after_view_change():
    """A batch timer armed in view v must not propose once the replica left v."""
    config = SBFTConfig(f=1, batch_size=4, batch_timeout=0.01)
    sim, replica, captured = _make_primary(config)
    _feed(replica, [_request(1)])
    assert replica._batch_timer is not None
    # The replica moves on (view change) before the timer fires; node 0 is no
    # longer the primary of view 1.
    replica.view = 1
    sim.run(until=0.05)
    assert not _proposed_blocks(captured)
    assert replica.stats["blocks_proposed"] == 0
    assert replica.next_sequence == 1


def test_enter_view_cancels_pending_batch_timer():
    config = SBFTConfig(f=1, batch_size=4, batch_timeout=5.0)
    sim, replica, captured = _make_primary(config)
    _feed(replica, [_request(1)])
    assert replica._batch_timer is not None
    replica._enter_view(1, NewViewPlan(view=1, last_stable=0, decisions={}))
    assert replica.view == 1
    assert replica._batch_timer is None


def test_requests_pending_at_batch_timer_survive_view_change():
    """End to end: requests sitting in a silent primary's batch queue complete
    after the view change (the new primary re-collects them via client retry)."""
    plan = FaultPlan.byzantine([0], silent, at_time=0.0)
    cluster, result = run_small_cluster(
        "sbft-c0", f=1, num_clients=2, requests_per_client=2,
        batch_size=4,                     # > offered parallelism: timer path
        fault_plan=plan, max_sim_time=60.0,
    )
    assert result.run.completed_requests == 4
    views = {r.view for rid, r in cluster.replicas.items() if rid != 0}
    assert views and min(views) >= 1


# ----------------------------------------------------------------------
# Pipelined clients
# ----------------------------------------------------------------------
def test_pipelined_client_reaches_and_respects_max_outstanding():
    cluster = build_cluster(
        "sbft-c0", f=1, num_clients=1, topology="lan", batch_size=2, seed=3,
        config_overrides={
            "fast_path_timeout": 0.05, "batch_timeout": 0.01,
            "view_change_timeout": 1.0, "client_retry_timeout": 1.5,
            "client_max_outstanding": 3,
        },
    )
    workload = KVWorkload(requests_per_client=9, batch_size=2, seed=4)
    cluster._build(workload)
    client = cluster.clients[0]
    depths = []
    original = client._issue_one
    def tracked():
        original()
        depths.append(len(client._in_flight))
    client._issue_one = tracked
    cluster.sim.run(until=60.0, stop_when=lambda: client.done)
    assert client.completed == 9
    assert max(depths) == 3            # the pipeline fills to the cap...
    assert all(d <= 3 for d in depths)  # ...and never exceeds it


def test_pipelined_client_finishes_faster_than_lockstep():
    def completion_time(outstanding):
        cluster, result = run_small_cluster(
            "sbft-c0", f=1, num_clients=1, requests_per_client=8,
            config_overrides={"client_max_outstanding": outstanding},
            topology="continent", seed=5,
        )
        assert result.run.completed_requests == 8
        return cluster.recorder.last_completion

    assert completion_time(4) < completion_time(1)


@pytest.mark.parametrize("protocol", ["sbft-c0", "pbft"])
def test_retransmission_of_older_pipelined_request_gets_its_own_reply(protocol):
    """With pipelined clients a replica may be asked to re-answer any of the
    last ``client_max_outstanding`` executed requests; the reply must carry
    the retried request's own timestamp and values, not the newest ones
    (which the client could never match against its in-flight entry)."""
    cluster, result = run_small_cluster(
        protocol, f=1, num_clients=1, requests_per_client=6,
        config_overrides={"client_max_outstanding": 3}, seed=9,
    )
    assert result.run.completed_requests == 6
    replica = cluster.replicas[1]
    assert sorted(replica._replies._cache[0]) == [4, 5, 6]   # depth retained
    assert replica._replies.prefixes()[0] == 6

    sent = []
    replica._send_to_client = lambda client_id, message: sent.append(message)
    older = _request(4)                          # retransmit a non-newest request
    replica._on_client_request(older, src=replica.config.n)
    assert len(sent) == 1
    assert sent[0].timestamp == 4
    assert sent[0].values == replica._replies.reply(0, 4)[1]


@pytest.mark.parametrize("kind", ["sbft", "pbft"])
def test_lost_pipelined_request_is_not_swallowed_as_executed(kind):
    """Executed-request tracking is exact per timestamp: if a pipelined
    client's ts=5 was lost while ts=4 and ts=6 executed, the retransmission
    of ts=5 must be ordered and executed, not deduplicated away (a plain
    high-water mark would fabricate its completion)."""
    config = SBFTConfig(f=1, batch_size=1)
    sim, replica, captured = _make_primary(config, kind)
    for timestamp in (1, 2, 3, 4, 6):              # ts=5 was lost in flight
        replica._replies.mark_executed(0, timestamp)
    assert replica._replies.prefixes()[0] == 4
    assert replica._replies.executed(0, 4)
    assert replica._replies.executed(0, 6)
    assert not replica._replies.executed(0, 5)     # the hole stays visible
    # The retransmission of the lost request is queued for ordering...
    replica._on_client_request(_request(5), src=replica.config.n)
    assert [len(b.requests) for b in _proposed_blocks(captured)] == [1]
    # ...and once executed the hole closes and the prefix advances.
    replica._replies.mark_executed(0, 5)
    assert replica._replies.prefixes()[0] == 6
    assert 0 not in replica._replies._gaps


@pytest.mark.parametrize("kind", ["sbft", "pbft"])
def test_replica_without_cached_values_stays_silent_on_retransmission(kind):
    """A replica that only knows a request executed (state transfer, pruned
    cache) must not answer with fabricated values: f+1 fabricated replies
    would form a matching quorum of wrong values at the client."""
    config = SBFTConfig(f=1, batch_size=1)
    sim, replica, captured = _make_primary(config, kind)
    replica._replies.adopt_prefixes({0: 3})       # learned via state transfer
    sent = []
    replica._send_to_client = lambda client_id, message: sent.append(message)
    replica._on_client_request(_request(2), src=replica.config.n)
    assert not sent                               # executed, but values unknown
    assert not _proposed_blocks(captured)         # and not re-ordered either


def test_reply_cache_evicts_lowest_timestamp_not_insertion_order():
    """A gap-filling retry executes out of timestamp order, so the reply
    cache may be inserted out of order; eviction must still drop the lowest
    timestamp (insertion-order eviction would evict the newest reply on
    every replica at once, making its retransmission unanswerable)."""
    from repro.core.reply_cache import ClientReplyTracker

    tracker = ClientReplyTracker(keep=2)
    tracker.record(0, 6, 2, ("v6",))
    tracker.record(0, 5, 3, ("v5",))   # ts=5 was the gap-filling (later) execution
    tracker.record(0, 7, 4, ("v7",))   # overflow: evict ts=5, not ts=6
    assert tracker.reply(0, 5) is None
    assert tracker.reply(0, 6) == (2, ("v6",))
    assert tracker.reply(0, 7) == (4, ("v7",))


@pytest.mark.parametrize("kind", ["sbft", "pbft"])
def test_state_transfer_ships_reply_cache_for_real_valued_retransmits(kind):
    """A re-synced replica adopts the donor's cached replies, so it answers
    retransmissions of requests it never executed locally with their *real*
    values (instead of staying silent forever, or — worse — fabricating).
    The adopted cache stays bounded to the pipeline depth."""
    config = SBFTConfig(f=1, batch_size=1, client_max_outstanding=2)
    sim, replica, captured = _make_primary(config, kind)
    replica._replies.adopt_cache({0: {4: (2, ("v4",)), 5: (3, ("v5",)), 6: (4, ("v6",))}})
    assert replica._replies.reply(0, 4) is None        # pruned to depth 2
    assert replica._replies.executed(0, 5) and replica._replies.executed(0, 6)
    sent = []
    replica._send_to_client = lambda client_id, message: sent.append(message)
    replica._on_client_request(_request(5), src=replica.config.n)
    assert len(sent) == 1
    assert sent[0].timestamp == 5 and sent[0].values == ("v5",)


def test_pipelined_retry_wave_rotates_primary_once():
    """All of a pipelined client's retry timers expire in the same instant
    (the pipeline filled in one event); the believed primary must rotate once
    per wave, not once per request — with max_outstanding == n a per-request
    rotation would alias straight back onto the dead primary."""
    config = SBFTConfig(f=1, c=0, client_retry_timeout=0.5, client_max_outstanding=4)
    sim, _network, _replicas, client = _make_client(requests=4, config=config)  # n == 4
    sim.run(until=0.6)                        # one full retry wave, nobody answers
    assert client.stats["retries"] == 4       # every request retried...
    assert client._believed_primary == 1      # ...but the primary moved by one
    sim.run(until=1.1)                        # second wave
    assert client._believed_primary == 2


def test_pipelined_client_completes_out_of_order():
    """Each in-flight request has its own state: acking the newest request
    first neither completes nor cancels the older one."""
    config = SBFTConfig(f=1, c=0, client_retry_timeout=5.0, client_max_outstanding=2)
    sim, network, _replicas, client = _make_client(requests=3, config=config)

    def ack(timestamp):
        network.send(0, client.node_id, _executed_ack_for(client, timestamp))

    sim.run(until=0.05)
    assert sorted(client._in_flight) == [1, 2]
    ack(2)                             # newest first
    sim.run(until=0.1)
    assert client.completed == 1
    # ts=1 survives, and the sliding window blocks ts=3 until ts=1 completes
    # (ts=3 would be max_outstanding beyond the oldest in-flight request).
    assert sorted(client._in_flight) == [1]
    ack(1)
    sim.run(until=0.15)
    assert sorted(client._in_flight) == [3]      # window advanced, 3 issued
    ack(3)
    sim.run(until=0.2)
    assert client.completed == 3
    assert client.done
