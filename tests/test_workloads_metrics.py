"""Unit tests for workload generators and the metrics collector."""

import pytest

from repro.metrics.collector import LatencyRecorder
from repro.services.authenticated_kv import AuthenticatedKVStore
from repro.services.ledger import LedgerService
from repro.workloads.ethereum_workload import EthereumWorkload, SyntheticTrace
from repro.workloads.kv_workload import KVWorkload


# ----------------------------------------------------------------------
# KV workload
# ----------------------------------------------------------------------
def test_kv_workload_shapes():
    workload = KVWorkload(requests_per_client=5, batch_size=3)
    requests = workload.client_operations(0)
    assert len(requests) == 5
    assert all(len(request) == 3 for request in requests)
    assert isinstance(workload.service_factory(), AuthenticatedKVStore)


def test_kv_workload_is_deterministic_per_client():
    a = KVWorkload(requests_per_client=3, seed=2).client_operations(1)
    b = KVWorkload(requests_per_client=3, seed=2).client_operations(1)
    assert [[op.payload.key for op in req] for req in a] == [
        [op.payload.key for op in req] for req in b
    ]


def test_kv_workload_differs_across_clients():
    workload = KVWorkload(requests_per_client=3, seed=2)
    keys_0 = [op.payload.key for req in workload.client_operations(0) for op in req]
    keys_1 = [op.payload.key for req in workload.client_operations(1) for op in req]
    assert keys_0 != keys_1


def test_kv_workload_describe_mentions_mode():
    assert "no batch" in KVWorkload(batch_size=1).describe()
    assert "batch=64" in KVWorkload(batch_size=64).describe()


# ----------------------------------------------------------------------
# Ethereum workload
# ----------------------------------------------------------------------
def test_synthetic_trace_composition():
    trace = SyntheticTrace(num_transactions=400, creation_fraction=0.05, seed=3)
    txs = trace.transactions()
    assert len(txs) == 400
    kinds = {tx.kind for tx in txs}
    assert {"transfer", "call"} <= kinds
    creations = sum(1 for tx in txs if tx.kind == "create")
    assert 0 < creations < 100


def test_synthetic_trace_is_cached_and_deterministic():
    trace = SyntheticTrace(num_transactions=50, seed=4)
    assert trace.transactions() == trace.transactions()
    other = SyntheticTrace(num_transactions=50, seed=4)
    assert [t.kind for t in trace.transactions()] == [t.kind for t in other.transactions()]


def test_genesis_deploys_contracts_at_predicted_addresses():
    trace = SyntheticTrace(num_transactions=10, seed=5)
    ledger = LedgerService()
    trace.genesis(ledger)
    for _kind, address in trace.genesis_contracts():
        assert ledger._world.get_code(address) != b""


def test_trace_calls_target_genesis_contracts():
    trace = SyntheticTrace(num_transactions=200, seed=6)
    genesis_addresses = {address for _kind, address in trace.genesis_contracts()}
    call_targets = {tx.to for tx in trace.transactions() if tx.kind == "call"}
    assert call_targets <= genesis_addresses
    assert call_targets


def test_ethereum_workload_chunks_are_about_12kb():
    workload = EthereumWorkload(num_transactions=500, num_clients=2, seed=8)
    workload.set_num_clients(2)
    requests = workload.client_operations(0) + workload.client_operations(1)
    sizes = [sum(op.payload.size_bytes for op in request) for request in requests]
    # Every full chunk is at least the target size; only the tail may be smaller.
    assert sum(1 for size in sizes if size < 12 * 1024) <= 1


def test_ethereum_workload_partitions_all_transactions_once():
    workload = EthereumWorkload(num_transactions=300, num_clients=3, seed=9)
    workload.set_num_clients(3)
    total_ops = sum(
        len(request)
        for client in range(3)
        for request in workload.client_operations(client)
    )
    assert total_ops == 300


def test_ethereum_workload_service_factory_replicas_agree():
    workload = EthereumWorkload(num_transactions=20, seed=10)
    assert workload.service_factory().digest() == workload.service_factory().digest()


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def test_latency_recorder_summary():
    recorder = LatencyRecorder()
    recorder.record(0.0, 0.2, operations=10)
    recorder.record(0.1, 0.2, operations=10)
    recorder.record(0.2, 0.6, operations=10)
    result = recorder.summary(duration=0.6, label="test")
    assert result.completed_requests == 3
    assert result.completed_operations == 30
    assert result.throughput == pytest.approx(50.0)
    assert result.mean_latency == pytest.approx((0.2 + 0.1 + 0.4) / 3)
    assert result.median_latency == pytest.approx(0.2)
    assert result.p99_latency == pytest.approx(0.4)


def test_latency_recorder_empty_summary():
    result = LatencyRecorder().summary(duration=1.0)
    assert result.throughput == 0.0
    assert result.mean_latency == 0.0


def test_run_result_as_row_contains_extra_fields():
    recorder = LatencyRecorder()
    recorder.record(0.0, 0.1)
    result = recorder.summary(duration=1.0, label="row")
    result.extra["custom"] = 7
    row = result.as_row()
    assert row["label"] == "row"
    assert row["custom"] == 7
    assert row["mean_latency_ms"] == pytest.approx(100.0)


def test_timeline_buckets_cover_run_including_empty_windows():
    recorder = LatencyRecorder()
    recorder.record(0.0, 0.1, operations=4)   # bucket 0
    recorder.record(0.1, 0.3, operations=4)   # bucket 0
    recorder.record(2.0, 2.1, operations=2)   # bucket 4 (stall between)
    timeline = recorder.timeline(0.5, duration=2.5)
    assert len(timeline.buckets) == 5
    assert timeline.buckets[0].completed_operations == 8
    assert timeline.buckets[0].throughput == pytest.approx(16.0)
    # The stall is visible as zero-throughput rows, not missing rows.
    assert timeline.buckets[1].completed_operations == 0
    assert timeline.buckets[2].throughput == 0.0
    assert timeline.buckets[4].completed_operations == 2
    rows = timeline.as_rows()
    assert rows[0]["t_start"] == 0.0 and rows[0]["t_end"] == 0.5
    assert rows[0]["mean_latency_ms"] == pytest.approx(150.0)
    assert rows[4]["max_latency_ms"] == pytest.approx(100.0)


def test_timeline_final_bucket_clamped_throughput():
    """A final bucket clamped to the run's end divides by the window it
    actually covers, not the nominal bucket width."""
    recorder = LatencyRecorder()
    recorder.record(0.0, 2.05, operations=10)
    timeline = recorder.timeline(0.5, duration=2.1)
    last = timeline.buckets[-1]
    assert last.start == pytest.approx(2.0)
    assert last.end == pytest.approx(2.1)
    assert last.throughput == pytest.approx(10.0 / 0.1)


def test_phase_summary_slices_before_during_after():
    recorder = LatencyRecorder()
    recorder.record(0.0, 0.5, operations=2)   # before
    recorder.record(0.5, 0.9, operations=2)   # before
    recorder.record(0.9, 1.5, operations=2)   # during
    recorder.record(2.5, 3.5, operations=2)   # after
    phases = recorder.phase_summary(1.0, 2.0, duration=4.0)
    assert phases["before"]["completed_requests"] == 2
    assert phases["before"]["throughput_ops"] == pytest.approx(4.0)
    assert phases["during"]["completed_requests"] == 1
    assert phases["during"]["throughput_ops"] == pytest.approx(2.0)
    assert phases["after"]["completed_requests"] == 1
    assert phases["after"]["throughput_ops"] == pytest.approx(1.0)
    assert phases["after"]["mean_latency_ms"] == pytest.approx(1000.0)


def test_phase_summary_clamps_to_run_duration():
    recorder = LatencyRecorder()
    recorder.record(0.0, 0.5, operations=1)
    phases = recorder.phase_summary(1.0, 3.0, duration=0.5)
    assert phases["before"]["t_end"] == 0.5
    assert phases["during"]["completed_requests"] == 0
    assert phases["after"]["throughput_ops"] == 0.0
