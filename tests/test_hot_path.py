"""Regression tests for the simulation hot path.

Covers the hot-path invariants introduced by the performance overhauls:

* the event heap stays bounded under heavy timer churn (cancelled-event
  compaction),
* compaction never changes execution order (events are totally ordered by
  ``(time, seq)``),
* the dispatch-table refactor is behaviour-preserving: a fixed seed produces
  identical replica ``stats`` and committed sequences run-over-run,
* bulk broadcast fan-out (``Network.broadcast_bulk`` /
  ``Simulator.schedule_many`` / ``LatencyModel.delays_from``) is
  decision-for-decision identical to a per-destination ``send`` loop —
  same RNG draws, same stats, same delivery order — including under
  ``drop_rate > 0`` and a downed link,
* one PBFT vote costs its signer one hash and its n recipients none (the
  signature-provenance fast path), pinned as an exact call count,
* one SBFT block costs the deployment one pass over its operation digests and
  each combine one interpolation, pinned as exact call counts,
* whole cluster runs leave no cyclic garbage (the zero-cycle test), which is
  what lets ``Simulator.run`` suspend the cyclic collector at no memory cost.
"""

from __future__ import annotations

import random

import pytest

from helpers import assert_agreement, executed_histories, record_executions, run_small_cluster
from repro.sim.events import Simulator
from repro.sim.latency import RegionLatency, UniformLatency
from repro.sim.network import Network
from repro.sim.process import Process


# ----------------------------------------------------------------------
# Heap compaction
# ----------------------------------------------------------------------
def test_heavy_timer_churn_keeps_heap_bounded():
    """10k timer/cancel cycles must not accumulate 10k heap entries."""
    sim = Simulator(seed=1)
    high_water = 0
    for i in range(10_000):
        event = sim.timer(1000.0 + i, lambda: None)
        event.cancel()
        high_water = max(high_water, len(sim._heap))
    # Lazy deletion alone would leave all 10k cancelled entries in the heap.
    assert high_water <= 2 * Simulator.COMPACT_MIN_CANCELLED
    assert sim.compactions > 0
    assert len(sim._heap) - sim._cancelled == 0


def test_live_events_excludes_cancelled():
    sim = Simulator()
    keep = [sim.timer(1.0, lambda: None) for _ in range(5)]
    drop = [sim.timer(2.0, lambda: None) for _ in range(3)]
    for event in drop:
        event.cancel()
    assert len(sim._heap) - sim._cancelled == 5
    assert sim._cancelled == 3
    assert keep  # silence unused warning


def test_compaction_preserves_execution_order():
    """Popping after a forced compaction yields the same (time, seq) order."""
    sim = Simulator(seed=2)
    fired = []
    expected = []
    events = []
    for i in range(500):
        delay = ((i * 37) % 100) / 100.0 + 0.001
        events.append((delay, i, sim.timer(delay, fired.append, (delay, i))))
    # Cancel two of every three events, enough to cross the compaction
    # threshold (garbage must reach half the heap above the floor).
    cancelled = set()
    for index, (_, i, event) in enumerate(events):
        if index % 3 != 0:
            event.cancel()
            cancelled.add(i)
    assert sim.compactions > 0
    expected = sorted(
        ((delay, i) for delay, i, _ in events if i not in cancelled),
        key=lambda pair: (pair[0], pair[1]),
    )
    sim.run()
    assert fired == expected


def test_cluster_run_with_retry_churn_keeps_garbage_subdominant():
    """A run with constant client-retry and batch-timer churn must never let
    cancelled entries dominate the heap (the pre-compaction leak)."""
    cluster, result = run_small_cluster(
        "sbft-c0",
        f=1,
        num_clients=3,
        requests_per_client=20,
        kv_batch=2,
        batch_size=2,
        config_overrides={
            # Short timers: every completed request cancels a retry timer and
            # every proposed block cancels a batch timer.
            "batch_timeout": 0.005,
            "client_retry_timeout": 0.5,
        },
        max_sim_time=240.0,
    )
    assert result.run.completed_requests == 60
    assert_agreement(cluster)
    sim = cluster.sim
    # The compaction invariant: garbage is below the floor or below half the heap.
    assert (
        sim._cancelled < Simulator.COMPACT_MIN_CANCELLED
        or 2 * sim._cancelled < len(sim._heap)
    )
    # Plenty of timers churned in this run; without compaction-on-cancel the
    # heap would have accumulated hundreds of dead entries.
    assert len(sim._heap) < 10 * Simulator.COMPACT_MIN_CANCELLED


def test_cancel_after_fire_does_not_corrupt_accounting():
    """Cancelling an event that already fired must not count as heap garbage."""
    sim = Simulator()
    fired = sim.timer(0.1, lambda: None)
    live = sim.timer(5.0, lambda: None)
    sim.run(until=1.0)
    fired.cancel()  # late cancel: the event left the heap when it executed
    assert sim._cancelled == 0
    assert len(sim._heap) - sim._cancelled == 1
    live.cancel()
    assert len(sim._heap) - sim._cancelled == 0


def test_digest_memo_distinguishes_equal_but_distinct_values():
    """1 and 1.0 are == in Python but encode differently; the digest memo
    must never hand one the other's cached digest."""
    from repro.crypto.hashing import sha256_hex
    from repro.services.authenticated_kv import AuthenticatedKVStore

    _result_digest = AuthenticatedKVStore()._result_digest
    int_digest = _result_digest(1)
    float_digest = _result_digest(1.0)
    bool_digest = _result_digest(True)
    assert int_digest == sha256_hex("result", 1)
    assert float_digest == sha256_hex("result", 1.0)
    assert bool_digest == sha256_hex("result", True)
    assert int_digest != float_digest
    # Nested containers are keyed type-exactly too.
    nested_int = _result_digest((1, "x"))
    nested_float = _result_digest((1.0, "x"))
    assert nested_int != nested_float


def _count_sha256_passes(monkeypatch):
    """Count every SHA-256 pass of the process from here on, by domain tag:
    ``sha256_hex`` and ``sha256_int`` both hash what ``_canonical_bytes``
    returns, and every caller's first part is its tag; the Merkle tree hashes
    its common leaves and nodes from pre-encoded bytes (``merkle.sha256``),
    and a key signs or checks prefix + body (``signatures.sha256``), each
    starting with the same tag as its first length-prefixed item."""
    from collections import Counter

    from repro.crypto import hashing, merkle, signatures

    passes = Counter()
    real = hashing._canonical_bytes

    def counting(parts):
        passes[parts[0]] += 1
        return real(parts)

    def counting_sha256(real_sha256):
        def count(data):
            passes[data[4:4 + int.from_bytes(data[:4], "big")].decode()] += 1
            return real_sha256(data)

        return count

    monkeypatch.setattr(hashing, "_canonical_bytes", counting)
    monkeypatch.setattr(merkle, "sha256", counting_sha256(merkle.sha256))
    monkeypatch.setattr(signatures, "sha256", counting_sha256(signatures.sha256))
    return passes


def test_sha256_passes_of_a_run_do_not_depend_on_what_ran_before(monkeypatch):
    """Every memo rides on an object built for the run, so a fixed-seed run
    hashes exactly as much first in the process as after any other run: a
    process-lifetime digest memo anywhere would lower the second count."""
    passes = _count_sha256_passes(monkeypatch)

    def run():
        passes.clear()
        cluster, result = run_small_cluster(
            "sbft-c0", f=1, num_clients=4, requests_per_client=8, seed=3
        )
        assert result.run.completed_requests == 32
        return dict(passes)

    first = run()
    assert sum(first.values()) > 300
    # Another protocol, seed and client count: different keys, requests and
    # blocks, the same "OK" results, the same contract of the memos.
    run_small_cluster("pbft", f=1, num_clients=3, requests_per_client=5, seed=9)
    run_small_cluster("sbft-c8", f=1, c=1, num_clients=2, requests_per_client=3, seed=4)
    assert run() == first


def test_pbft_run_hashes_once_per_signature_not_once_per_recipient(monkeypatch):
    """Zero-noise work counters: the hashes and message encodings the
    signature layer computes in one fixed-seed f=2 PBFT run, and the run's
    SHA-256 total.  Signing hashes once; verifying a broadcast vote at each of
    its n recipients must not hash again; and a block's replies are encoded
    once, whichever of the n replicas signs them."""
    from collections import Counter

    from repro.crypto import signatures

    passes = _count_sha256_passes(monkeypatch)
    encodes, verifies = Counter(), Counter()
    real_encode, real_verify = signatures._canonical_bytes, signatures.VerifyKey.verify

    def counting_encode(parts):
        if len(parts) == 1:  # a message body; a key's prefix is two parts
            encodes[parts[0][0]] += 1
        return real_encode(parts)

    def counting_verify(self, message, signature):
        verifies[message[0]] += 1
        return real_verify(self, message, signature)

    monkeypatch.setattr(signatures, "_canonical_bytes", counting_encode)
    monkeypatch.setattr(signatures.VerifyKey, "verify", counting_verify)
    cluster, result = run_small_cluster("pbft", f=2, num_clients=2, requests_per_client=6, seed=11)
    assert result.run.completed_requests == 12
    assert_agreement(cluster)
    # One pass per signature: 12 requests + 6 pre-prepares + 7 x 6 prepares
    # and commits + 7 x 12 replies.  No checkpoint falls in six blocks.
    assert passes["pk-sign"] == 12 + 6 + 42 + 42 + 84
    # One encoding per signed message: the 7 replicas sign each request's
    # reply body from the encoding its first signer stashed on the block.
    assert encodes == {"request": 12, "pre-prepare": 6, "prepare": 42, "commit": 42, "reply": 12}
    # Every vote is verified by all 7 replicas; a client stops at f + 1 replies.
    assert verifies == {"prepare": 7 * 42, "commit": 7 * 42, "reply": 12 * 3}
    # The whole run: trusted setup, the signatures above, one digest to sign
    # and one to check per pre-prepare, one state fingerprint per replica, and
    # per block one journal (4 operation digests, a 4-leaf tree, a chain step)
    # by its first planner; a client digests the values of each of the f + 1
    # replies it counts per request.  ``True`` is the only result value, and
    # four different replicas were some block's first planner.
    assert passes == {
        "dealer-poly": 15, "keygen": 9, "pk-sign": 186, "block": 6 + 6, "kv-contents": 7,
        "op": 24, "result": 4, "merkle-leaf": 24, "merkle-node": 18, "authkv-chain": 6,
        "reply-values": 36,
    }


def test_sbft_block_costs_one_digest_pass_and_one_interpolation_per_combine(monkeypatch):
    """Zero-noise work counters of a fixed-seed f=2 ``sbft-c8`` fast-path run
    (n=9): the per-operation digests of a block are computed by the first
    replica to execute it and read by its peers, and every threshold combine
    interpolates exactly once (there is no coefficient table to hit or miss)."""
    from repro.crypto.mockgroup import MockGroup
    from repro.crypto.threshold import ThresholdScheme
    from repro.services import authenticated_kv

    calls = {"operation_digest": 0, "lagrange_coefficients": 0, "combine": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        authenticated_kv,
        "operation_digest",
        counting("operation_digest", authenticated_kv.operation_digest),
    )
    monkeypatch.setattr(
        MockGroup,
        "lagrange_coefficients",
        counting("lagrange_coefficients", MockGroup.lagrange_coefficients),
    )
    monkeypatch.setattr(ThresholdScheme, "combine", counting("combine", ThresholdScheme.combine))
    cluster, result = run_small_cluster(
        "sbft-c8", f=2, c=1, num_clients=2, requests_per_client=6, kv_batch=2, seed=11
    )
    assert result.run.completed_requests == 12
    assert_agreement(cluster)
    replicas = len(cluster.replicas)
    blocks = cluster.replicas[0].stats["blocks_executed"]
    operations = result.completed_operations
    assert (replicas, blocks, operations) == (9, 6, 24)
    assert all(r.stats["blocks_executed"] == blocks for r in cluster.replicas.values())
    # One pass over each block's operations for the whole deployment, plus one
    # proof check per acknowledged request at its client; at the parent commit
    # each of the 9 replicas made its own pass (operations x replicas = 216).
    requests = result.run.completed_requests
    assert calls["operation_digest"] == operations + requests
    # One sigma proof per block from each of its c + 1 = 2 C-collectors and one
    # pi proof per block from each of its 2 E-collectors.
    assert calls["combine"] == 4 * blocks
    assert calls["lagrange_coefficients"] == calls["combine"]


@pytest.mark.parametrize("scenario", ["sbft-c8-fast", "sbft-c0-viewchange", "pbft", "ledger"])
def test_cluster_runs_leave_no_cyclic_garbage(scenario):
    """What makes suspending the cyclic collector inside ``Simulator.run``
    memory-neutral: a whole run, collector off, leaves nothing that only a
    cycle collection could free — reference counting reclaimed every message,
    event and timer as it died.  An event-loop callback that starts creating
    reference cycles fails here, not as a slow RSS drift in the benchmark."""
    import gc

    from repro.protocols.cluster import build_cluster
    from repro.sim.faults import FaultPlan
    from repro.workloads.ethereum_workload import EthereumWorkload

    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        if scenario == "sbft-c8-fast":
            cluster, _ = run_small_cluster("sbft-c8", f=2, c=1, requests_per_client=8)
            assert all(r.stats["blocks_committed_slow"] == 0 for r in cluster.replicas.values())
        elif scenario == "sbft-c0-viewchange":
            plan = FaultPlan.crash_first(1, at_time=0.05).extend(
                FaultPlan.crash_backups(1, 7, at_time=0.5)
            )
            cluster, _ = run_small_cluster(
                "sbft-c0", f=2, requests_per_client=12, fault_plan=plan
            )
            assert max(r.view for r in cluster.replicas.values() if not r.crashed) > 0
        elif scenario == "pbft":
            cluster, _ = run_small_cluster("pbft", f=2, requests_per_client=8)
        else:
            cluster = build_cluster("sbft-c0", f=1, num_clients=2, topology="lan", batch_size=2)
            workload = EthereumWorkload(
                num_transactions=120, num_accounts=40, num_clients=2, seed=7
            )
            cluster.run(workload, max_sim_time=600.0)
        assert all(client.done for client in cluster.clients.values())
        # The cluster is still referenced: its own (reachable) back-references
        # are not garbage, only cycles the run dropped would be.
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


# ----------------------------------------------------------------------
# Bulk broadcast fan-out
# ----------------------------------------------------------------------
class _RecordingSink(Process):
    """Sink that records (sim-time, message, src) at delivery."""

    def __init__(self, sim, node_id):
        super().__init__(sim, node_id)
        self.received = []

    def on_message(self, message, src):
        self.received.append((self.sim.now, message, src))


def _make_net(num_nodes, seed=42, latency=None, drop_rate=0.0):
    sim = Simulator(seed=seed)
    latency = latency or RegionLatency([i % 3 for i in range(num_nodes)],
                                       [[0.0, 0.01, 0.02],
                                        [0.01, 0.0, 0.03],
                                        [0.02, 0.03, 0.0]])
    net = Network(sim, latency=latency, drop_rate=drop_rate, seed=seed + 1)
    sinks = [_RecordingSink(sim, i) for i in range(num_nodes)]
    for sink in sinks:
        net.register(sink)
    return sim, net, sinks


def _net_observables(sim, net, sinks):
    stats = net.stats
    return (
        [sink.received for sink in sinks],
        (stats.messages_sent, stats.messages_delivered, stats.messages_dropped,
         stats.bytes_sent, dict(stats.per_type_count), dict(stats.per_type_bytes)),
        net.rng.getstate(),
        sim.events_processed,
        sim.now,
    )


@pytest.mark.parametrize(
    "scenario",
    ["clean", "drops", "down-link", "everything"],
)
def test_broadcast_bulk_matches_per_destination_sends(scenario):
    """broadcast_bulk must be draw-for-draw identical to a send loop.

    The reference network fans out with the pre-bulk semantics (one
    ``send`` per destination); the bulk network uses ``broadcast``.  Both
    run fixed-seed and must agree on every delivery time, every stats
    counter and the final RNG state.
    """
    drop_rate = 0.5 if scenario in ("drops", "everything") else 0.0

    def drive(use_bulk):
        sim, net, sinks = _make_net(6, drop_rate=drop_rate)
        if scenario in ("down-link", "everything"):
            net.set_link_down(0, 2)
        for round_number in range(5):
            src = round_number % 3
            message = f"m{round_number}"
            if use_bulk:
                net.broadcast_bulk(src, message, range(6))
            else:
                for dst in range(6):
                    net.send(src, dst, message)
            sim.run()
        return _net_observables(sim, net, sinks)

    assert drive(use_bulk=True) == drive(use_bulk=False)


def test_broadcast_bulk_interleaved_with_sim_time():
    """Fan-outs issued from running events (mid-simulation, non-zero now)
    must match the send loop too — delays stack on the current clock."""

    def drive(use_bulk):
        sim, net, sinks = _make_net(4, drop_rate=0.25)

        def fan_out(src, message):
            if use_bulk:
                net.broadcast_bulk(src, message, [0, 1, 2, 3])
            else:
                for dst in range(4):
                    net.send(src, dst, message)

        sim.schedule(0.05, fan_out, 1, "a")
        sim.schedule(0.05, fan_out, 2, "b")
        sim.schedule(0.20, fan_out, 3, "c")
        sim.run()
        return _net_observables(sim, net, sinks)

    assert drive(use_bulk=True) == drive(use_bulk=False)


def test_broadcast_bulk_empty_and_unknown_destinations():
    from repro.errors import NetworkError

    sim, net, sinks = _make_net(3)
    net.broadcast_bulk(0, "noop", [])
    assert net.stats.messages_sent == 0
    with pytest.raises(NetworkError):
        net.broadcast_bulk(0, "bad", [0, 1, 99])
    # Validation is all-or-nothing: a failed fan-out has no side effects.
    assert net.stats.messages_sent == 0
    assert net.rng.getstate() == random.Random(43).getstate()
    sim2, net2, _ = _make_net(3, drop_rate=0.5)
    with pytest.raises(NetworkError):
        net2.broadcast_bulk(0, "bad", [0, 1, 99])
    assert net2.stats.messages_sent == 0


def test_schedule_many_assigns_contiguous_seqs_and_preserves_order():
    """schedule_many must be indistinguishable from a loop of schedule calls:
    contiguous (time, seq) pairs, same execution order, for both the
    amortized-heapify (large batch) and incremental-push (small batch) paths."""

    def drive(bulk):
        sim = Simulator(seed=9)
        fired, stamps = [], []
        sim._trace = lambda time, seq, callback, args: stamps.append((time, seq))
        # Pre-existing events so the small batch takes the push path.
        for i in range(64):
            sim.schedule(0.5 + i * 0.001, fired.append, ("pre", i))
        delays = [((i * 13) % 7) * 0.1 for i in range(40)]
        if bulk:
            sim.schedule_many(delays, fired.append, [(("big", i),) for i in range(len(delays))])
            sim.schedule_many([0.01, 0.02], fired.append, [(("small", 0),), (("small", 1),)])
        else:
            for i, delay in enumerate(delays):
                sim.schedule(delay, fired.append, ("big", i))
            sim.schedule(0.01, fired.append, ("small", 0))
            sim.schedule(0.02, fired.append, ("small", 1))
        sim.run()
        return fired, stamps, sim.events_processed

    assert drive(bulk=True) == drive(bulk=False)


def test_schedule_many_rejects_negative_delay_and_length_mismatch():
    from repro.errors import SimulationError

    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule_many([0.1, -0.1], lambda *a: None, [(1,), (2,)])
    with pytest.raises(SimulationError):
        sim.schedule_many([0.1], lambda *a: None, [(1,), (2,)])


@pytest.mark.parametrize("model", ["uniform", "region"])
def test_delays_from_matches_scalar_delay_draws(model):
    """delays_from must consume the RNG exactly like a delay() loop."""
    if model == "uniform":
        latency = UniformLatency(base=0.002, jitter=0.001)
    else:
        latency = RegionLatency([0, 1, 2, 0, 1], [[0.0, 0.01, 0.02],
                                                  [0.01, 0.0, 0.03],
                                                  [0.02, 0.03, 0.0]])
    dsts = [0, 1, 2, 3, 4, 2, 0]
    for src in range(3):
        rng_scalar = random.Random(17 + src)
        rng_bulk = random.Random(17 + src)
        scalar = [latency.delay(src, dst, rng_scalar) for dst in dsts]
        bulk = latency.delays_from(src, dsts, rng_bulk)
        assert bulk == scalar
        assert rng_bulk.getstate() == rng_scalar.getstate()


@pytest.mark.parametrize(
    "faults",
    ["drops", "down-link"],
)
def test_fixed_seed_cluster_runs_identical_under_network_faults(faults):
    """Fixed-seed end-to-end runs must stay deterministic with the bulk
    fan-out active on every decision path: random drops and a downed link
    (decision sequences, replica stats, NetworkStats)."""
    from repro.protocols.cluster import build_cluster
    from repro.workloads.kv_workload import KVWorkload

    def run_once():
        cluster = build_cluster(
            "sbft-c0",
            f=1,
            num_clients=2,
            topology="continent",
            batch_size=2,
            seed=23,
            drop_rate=0.01 if faults == "drops" else 0.0,
            config_overrides={
                "fast_path_timeout": 0.05,
                "batch_timeout": 0.01,
                "view_change_timeout": 1.0,
                "client_retry_timeout": 1.5,
            },
        )
        workload = KVWorkload(requests_per_client=4, batch_size=2, seed=24)
        cluster.post_build = record_executions
        cluster._build(workload)
        if faults == "down-link":
            cluster.network.set_link_down(1, 3)
        cluster.sim.run(
            until=60.0,
            stop_when=lambda: all(client.done for client in cluster.clients.values()),
        )
        stats = cluster.network.stats
        return (
            {rid: dict(replica.stats) for rid, replica in cluster.replicas.items()},
            executed_histories(cluster),
            (stats.messages_sent, stats.messages_delivered, stats.messages_dropped,
             stats.bytes_sent, dict(stats.per_type_count), dict(stats.per_type_bytes)),
            cluster.sim.events_processed,
            cluster.sim.now,
        )

    first = run_once()
    second = run_once()
    assert first == second
    # The runs made progress (the faults did not stall the protocol).
    assert any(history for history in first[1].values())


# ----------------------------------------------------------------------
# Dispatch-table behaviour preservation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", ["sbft-c0", "sbft-c8", "pbft"])
def test_fixed_seed_runs_are_identical(protocol):
    """Same seed, same stats, same committed sequences (dispatch refactor)."""

    def run_once():
        c = 1 if protocol == "sbft-c8" else None
        cluster, result = run_small_cluster(
            protocol, f=1, c=c, num_clients=2, requests_per_client=6, seed=11
        )
        return (
            {rid: dict(replica.stats) for rid, replica in cluster.replicas.items()},
            executed_histories(cluster),
            result.network_messages,
            cluster.sim.events_processed,
        )

    first = run_once()
    second = run_once()
    assert first == second


def test_message_cost_table_matches_formulas(sim, network, small_config, setup):
    """The precomputed cost table charges exactly the documented formulas."""
    from repro.core.messages import ClientRequest, PrePrepare, SignShare
    from repro.core.replica import SBFTReplica
    from repro.services.kvstore import KVStore

    replica = SBFTReplica(
        sim=sim,
        network=network,
        node_id=0,
        config=small_config,
        keys=setup.replica_keys(0),
        service=KVStore(),
    )
    costs = replica.costs
    peer = 1  # a message from the replica itself costs nothing (tests/test_replica_runtime.py)
    request = ClientRequest(client_id=0, timestamp=1, operations=(), signature=None)
    assert replica._message_cost(request, peer) == costs.rsa_verify

    pre_prepare = PrePrepare(sequence=1, view=0, requests=(request, request), digest="d", primary_signature=None)
    assert replica._message_cost(pre_prepare, peer) == pytest.approx(
        costs.rsa_verify * 3 + costs.hash_op
    )

    share = setup.sigma.sign_share(0, ("sign", 1, 0, "d"))
    both = SignShare(sequence=1, view=0, replica_id=0, digest="d", sigma_share=share, tau_share=share)
    tau_only = SignShare(sequence=1, view=0, replica_id=0, digest="d", sigma_share=None, tau_share=share)
    # Every share is filed unchecked (one hash); its check is the combine's.
    assert replica._message_cost(both, peer) == 2 * costs.hash_op
    assert replica._message_cost(tau_only, peer) == costs.hash_op

    # Unknown message types fall back to a hash-op charge.
    assert replica._message_cost(object(), peer) == costs.hash_op
