"""Batching-policy and pipelined-client tests.

Covers the adaptive batching layer (``SBFTConfig.batch_policy``): the
``fixed`` policy must reproduce the pre-policy behaviour byte-for-byte for
fixed seeds (golden fingerprints below were captured before the policy layer
existed), while ``adaptive`` must hold requests back under load and drain the
queue into large blocks bounded by ``batch_max``.  Also covers the batching
edge cases that existed before this layer — the batch-timeout flush of a
partial batch and the batch timer vs. view-change interleaving — and the
pipelined client (``client_max_outstanding > 1``).
"""

import itertools

import pytest

from helpers import (
    make_bare_replica,
    make_request,
    run_fingerprint,
    run_small_cluster,
    shared_and_unshared,
    unshare,
)
from repro.adversary.behaviours import silent
from repro.core.config import SBFTConfig
from repro.core import runtime
from repro.core.messages import ExecuteAck, PrePrepare
from repro.core.replica import SBFTReplica
from repro.core.viewchange import NewViewPlan
from repro.crypto.signatures import generate_keypair
from repro.errors import ConfigurationError
from repro.metrics.collector import LatencyRecorder
from repro.pbft.replica import PBFTReplica
from repro.protocols.cluster import build_cluster
from repro.services.authenticated_kv import AuthenticatedKVStore
from repro.sim.events import Simulator
from repro.sim.faults import FaultPlan
from repro.sim.latency import lan_topology
from repro.sim.network import Network
from repro.workloads.kv_workload import KVWorkload


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------
def test_batch_policy_validation():
    assert SBFTConfig(f=1, batch_policy="adaptive").batch_policy == "adaptive"
    with pytest.raises(ConfigurationError):
        SBFTConfig(f=1, batch_policy="magic")
    with pytest.raises(ConfigurationError):
        SBFTConfig(f=1, batch_size=8, batch_max=4)
    with pytest.raises(ConfigurationError):
        SBFTConfig(f=1, client_max_outstanding=0)


def test_effective_batch_max_default_and_override():
    assert SBFTConfig(f=1, batch_size=4).effective_batch_max == 64
    assert SBFTConfig(f=1, batch_size=32).effective_batch_max == 128
    assert SBFTConfig(f=1, batch_size=4, batch_max=16).effective_batch_max == 16


def test_describe_mentions_adaptive_policy():
    text = SBFTConfig(f=1, batch_size=4, batch_policy="adaptive").describe()
    assert "adaptive" in text
    assert "adaptive" not in SBFTConfig(f=1, batch_size=4).describe()


# ----------------------------------------------------------------------
# Golden determinism: batch_policy="fixed" reproduces pre-policy seeds
# ----------------------------------------------------------------------
#: sha256 over (replica stats, executed histories, client stats, traffic,
#: event count, final sim time) of fixed-seed runs, captured on the commit
#: *before* the batch-policy layer and the pipelined client landed.  The
#: default configuration (batch_policy="fixed", client_max_outstanding=1)
#: must keep reproducing these decisions byte-for-byte.
#:
#: Every golden run (here, the fault runs below and the byzantine runs in
#: tests/test_adversary_behaviours.py) is also replayed *unshared* against the
#: same constant (``helpers.shared_and_unshared``): each recipient gets its own
#: copy of every message and each replica its own collector-group dict, so
#: every stash on a shared object is recomputed by whoever reads it.  If only
#: the unshared half fails, a stash is not a pure function of what its guard
#: compares — docs/static-analysis.md says how to read the difference.
GOLDEN_RUNS = [
    ("sbft-c0", dict(f=1, num_clients=2, requests_per_client=6, seed=11),
     "752b0a51e27403174606b7284835a6f37a9fda1627e5990d62ca64ed2483c49a"),
    ("sbft-c8", dict(f=1, c=1, num_clients=2, requests_per_client=6, seed=11),
     "328afb2b7fd01820b82686655d19e48f5f3ecc6534fe66a1276b4a1d877f95d5"),
    ("pbft", dict(f=1, num_clients=2, requests_per_client=6, seed=11),
     "d8e141475a0cf18171e2ba53092399836ddf1217d0e634e31198693a1ebda5f0"),
    ("sbft-c0", dict(f=2, num_clients=4, requests_per_client=5, batch_size=4,
                     topology="continent", seed=7),
     "96167b41c86129a1f6e6e88c5eec8e5b9d54c3f36b051ad4ba0fdaff1334ea6b"),
]


@shared_and_unshared
@pytest.mark.parametrize("protocol,kwargs,expected", GOLDEN_RUNS,
                         ids=[f"{p}-seed{k['seed']}" for p, k, _ in GOLDEN_RUNS])
def test_fixed_policy_reproduces_golden_seeds(protocol, kwargs, expected, post_build):
    assert run_fingerprint(protocol, post_build=post_build, **kwargs) == expected


#: Same fingerprint, wider net: fixed-seed runs through the code paths both
#: replica stacks share — view change after a primary crash, the slow path
#: and fast-path timers under crashed backups, restart + state-transfer
#: rejoin, adaptive batching with pipelined clients.  Captured at commit
#: 718bfd1 (the parent of the replica-runtime extraction), which must not
#: move any of them.  The three faulted SBFT runs that reach the slow path
#: (both primary crashes, crashed backups) were re-captured when degraded
#: mode landed: from the second consecutive slow commit on the collector skips
#: the σ wait and replicas answer clients directly (docs/architecture.md).
_CRASH_THEN_RESTART = FaultPlan.crash_first(1, at_time=0.02, node_ids=[3])
_PIPELINED_ADAPTIVE = {"batch_policy": "adaptive", "client_max_outstanding": 4}
GOLDEN_FAULT_RUNS = [
    ("sbft-c0-primary-crash-f1", "sbft-c0",
     dict(f=1, num_clients=2, requests_per_client=8, seed=3,
          fault_plan=FaultPlan.crash_first(1, at_time=0.02)),
     "4d9d9a44781bca1733290bf73e9893de42307daf7e21eedd61be9da486c01159"),
    ("sbft-c0-primary-crash-f2-continent", "sbft-c0",
     dict(f=2, num_clients=4, requests_per_client=6, batch_size=4, topology="continent", seed=5,
          fault_plan=FaultPlan.crash_first(1, at_time=0.3)),
     "35b05255d3b4c836cdc1eba09dfb831c5e9f84a7bbf23e5501b63aae36a3042c"),
    ("sbft-c8-crashed-backups", "sbft-c8",
     dict(f=1, c=1, num_clients=2, requests_per_client=8, seed=4,
          fault_plan=FaultPlan.crash_backups(2, 6, at_time=0.02)),
     "86c730102b90c1e29ee0c87e0bf7920477420cc3a87fa29e2e27f5511df222d4"),
    ("pbft-primary-crash-f2-lan", "pbft",
     dict(f=2, num_clients=4, requests_per_client=6, topology="lan", seed=6,
          fault_plan=FaultPlan.crash_first(1, at_time=0.02)),
     "cb98b772c23952c3760c43a0f0a247e0c38b9ada30da7b2f144eb40b4e29f6c5"),
    ("sbft-c0-restart-state-transfer", "sbft-c0",
     dict(f=1, num_clients=2, requests_per_client=40, seed=9,
          fault_plan=_CRASH_THEN_RESTART.extend(FaultPlan.restart([3], at_time=0.1))),
     "d0da4108c6c57130de1466d3d8b3d7affc239926a4de9ee890188076a963f0a1"),
    ("pbft-restart-state-transfer", "pbft",
     dict(f=1, num_clients=2, requests_per_client=40, seed=9,
          fault_plan=_CRASH_THEN_RESTART.extend(FaultPlan.restart([3], at_time=0.08))),
     "5796ae413c9846d8f159e5b5f913cdcfd8dcf0c7c2b08c811353839b763722e0"),
    ("sbft-c8-adaptive-pipelined", "sbft-c8",
     dict(f=1, c=1, num_clients=4, requests_per_client=12, seed=12,
          config_overrides=_PIPELINED_ADAPTIVE),
     "6af45ca9dec343b0daadf2dc63ffccb22dca8ae459ff269ab2b738720aaab529"),
    ("pbft-adaptive-pipelined", "pbft",
     dict(f=1, num_clients=4, requests_per_client=12, seed=12,
          config_overrides=_PIPELINED_ADAPTIVE),
     "a659b8e8d2a7dae24d27d06e61de715bb5781baa5a69ec14d1e2bff43092ea1d"),
]


@shared_and_unshared
@pytest.mark.parametrize("protocol,kwargs,expected",
                         [run[1:] for run in GOLDEN_FAULT_RUNS],
                         ids=[run[0] for run in GOLDEN_FAULT_RUNS])
def test_fault_and_pipelining_runs_reproduce_golden_seeds(protocol, kwargs, expected, post_build):
    assert run_fingerprint(protocol, post_build=post_build, **kwargs) == expected


@pytest.mark.parametrize("protocol,kwargs", [GOLDEN_RUNS[0][:2], GOLDEN_RUNS[2][:2]],
                         ids=["sbft-c0", "pbft"])
def test_unshared_replay_sees_a_stash_that_depends_on_how_often_it_was_computed(
    protocol, kwargs, monkeypatch
):
    """The differential fails demonstrably: salt the stashed block cost with
    a call counter — nothing an AST model of "memo" identifiers can see — and
    the shared run (one computation per block, every replica reads it) and the
    unshared run (one per replica) no longer decide the same thing."""
    real = runtime.block_execution_plan

    def fingerprint(post_build):
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
        return run_fingerprint(protocol, post_build=post_build, **kwargs)

    assert fingerprint(None) != fingerprint(unshare)


def test_explicit_fixed_policy_matches_default():
    """batch_policy="fixed" spelled out is the same code path as the default."""
    base = run_fingerprint("sbft-c0", f=1, num_clients=2, requests_per_client=6, seed=11)
    explicit = run_fingerprint(
        "sbft-c0", f=1, num_clients=2, requests_per_client=6, seed=11,
        config_overrides={"batch_policy": "fixed"},
    )
    assert base == explicit == GOLDEN_RUNS[0][2]


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
    config = SBFTConfig(f=1, batch_size=2, batch_max=8, batch_policy="adaptive",
                        batch_timeout=0.01)
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
    # A queue reaching batch_max proposes immediately, capped at batch_max.
    _feed(replica, [_request(t) for t in range(8, 17)])
    blocks = _proposed_blocks(captured)
    assert len(blocks) == 3
    assert len(blocks[2].requests) == 8


def test_adaptive_resumes_minimum_batches_when_idle():
    config = SBFTConfig(f=1, batch_size=2, batch_max=8, batch_policy="adaptive",
                        batch_timeout=0.01)
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
    sim = Simulator(seed=1)
    network = Network(sim, latency=lan_topology(8), seed=1)

    class _Sink:
        def __init__(self, node_id):
            self.node_id = node_id
            self.crashed = False
        def deliver(self, message, src):
            pass

    for replica_id in range(config.n):        # n == 4 == max_outstanding
        network.register(_Sink(replica_id))
    ops = [[AuthenticatedKVStore.make_put(f"k{i}", "v", client_id=0, timestamp=i + 1)]
           for i in range(4)]
    from repro.core.client import SBFTClient
    client = SBFTClient(
        sim=sim, network=network, node_id=config.n, client_id=0, config=config,
        signing_key=generate_keypair("client-0"), requests=ops,
        recorder=LatencyRecorder(),
    )
    network.register(client)
    sim.run(until=0.6)                        # one full retry wave, nobody answers
    assert client.stats["retries"] == 4       # every request retried...
    assert client._believed_primary == 1      # ...but the primary moved by one
    sim.run(until=1.1)                        # second wave
    assert client._believed_primary == 2


def test_pipelined_client_completes_out_of_order():
    """Each in-flight request has its own state: acking the newest request
    first neither completes nor cancels the older one."""
    config = SBFTConfig(f=1, c=0, client_retry_timeout=5.0, client_max_outstanding=2)
    sim = Simulator(seed=1)
    network = Network(sim, latency=lan_topology(8), seed=1)

    class _Sink:
        def __init__(self, node_id):
            self.node_id = node_id
            self.crashed = False
        def deliver(self, message, src):
            pass

    for replica_id in range(config.n):
        network.register(_Sink(replica_id))
    ops = [[AuthenticatedKVStore.make_put(f"k{i}", "v", client_id=0, timestamp=i + 1)]
           for i in range(3)]
    from repro.core.client import SBFTClient
    client = SBFTClient(
        sim=sim, network=network, node_id=config.n, client_id=0, config=config,
        signing_key=generate_keypair("client-0"), requests=ops,
        recorder=LatencyRecorder(),
    )
    network.register(client)

    def ack(timestamp):
        network.send(0, client.node_id, ExecuteAck(
            sequence=timestamp, client_id=0, timestamp=timestamp, first_position=0,
            values=(True,), state_digest="d", pi_signature=None, proof=None,
        ))

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
