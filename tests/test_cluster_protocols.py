"""Tests for the protocol registry, cluster builder and cross-variant behaviour."""

import textwrap

import pytest

import repro
from helpers import assert_agreement, run_small_cluster
from repro.errors import ConfigurationError
from repro.protocols.cluster import build_cluster
from repro.protocols.registry import PAPER_ORDER, get_protocol, protocol_names
from repro.services.kvstore import KVStore
from repro.workloads.ethereum_workload import EthereumWorkload
from repro.workloads.kv_workload import KVWorkload


def test_registry_contains_the_papers_five_variants():
    assert protocol_names() == ["pbft", "linear-pbft", "linear-pbft-fast", "sbft-c0", "sbft-c8"]
    for name in PAPER_ORDER:
        spec = get_protocol(name)
        assert spec.name == name
        assert spec.kind in ("pbft", "sbft")


def test_registry_configs_toggle_the_right_ingredients():
    f = 4
    pbft = get_protocol("pbft").build_config(f=f)
    linear = get_protocol("linear-pbft").build_config(f=f)
    fast = get_protocol("linear-pbft-fast").build_config(f=f)
    sbft0 = get_protocol("sbft-c0").build_config(f=f)
    sbft8 = get_protocol("sbft-c8").build_config(f=f)

    assert not linear.fast_path_enabled and not linear.execution_collectors_enabled
    assert fast.fast_path_enabled and not fast.execution_collectors_enabled
    assert sbft0.fast_path_enabled and sbft0.execution_collectors_enabled and sbft0.c == 0
    # The one n/c rule (registry.protocol_sizes): c = max(1, f // 8).
    assert sbft8.c == 1 and sbft8.n == 3 * f + 3
    assert pbft.n == 3 * f + 1


def test_the_package_quickstart_runs_as_written(capsys):
    """The ``Quickstart::`` block of the ``repro`` package docstring, verbatim."""
    block = repro.__doc__.split("Quickstart::\n", 1)[1]
    exec(textwrap.dedent(block), {})
    throughput, mean_latency = map(float, capsys.readouterr().out.split())
    assert throughput > 0 and mean_latency > 0


def test_unknown_protocol_rejected():
    with pytest.raises(ConfigurationError):
        get_protocol("hotstuff")
    with pytest.raises(ConfigurationError):
        build_cluster("hotstuff")
    with pytest.raises(ConfigurationError):
        build_cluster("pbft", f=0)


def test_a_workload_serving_an_unauthenticated_service_is_refused():
    """Replicas sign the service's state digest and clients check its proofs:
    a service without that interface is a wiring error, not a downgrade."""
    workload = KVWorkload(requests_per_client=1, seed=0)
    workload.service_factory = KVStore
    with pytest.raises(ConfigurationError, match="KVStore, which is not an AuthenticatedService"):
        build_cluster("sbft-c0", f=1, num_clients=1).run(workload)


def test_c_override_changes_group_size():
    cluster = build_cluster("sbft-c8", f=1, c=1)
    assert cluster.config.n == 6


@pytest.mark.parametrize("protocol", PAPER_ORDER)
def test_every_variant_completes_the_kv_workload(protocol):
    c = 1 if protocol == "sbft-c8" else None
    cluster, result = run_small_cluster(protocol, f=1, c=c, num_clients=2, requests_per_client=4)
    assert result.run.completed_requests == 8
    assert result.throughput > 0
    assert_agreement(cluster)


@pytest.mark.parametrize("protocol", ["sbft-c0", "pbft"])
def test_smart_contract_workload_end_to_end(protocol):
    """The paper's headline comparison: both engines execute the EVM workload
    and every replica ends with the same ledger digest."""
    cluster = build_cluster(
        protocol,
        f=1,
        num_clients=2,
        topology="lan",
        batch_size=2,
        config_overrides={"batch_timeout": 0.01, "fast_path_timeout": 0.05},
    )
    workload = EthereumWorkload(num_transactions=120, num_accounts=20, num_clients=2, seed=5)
    result = cluster.run(workload, max_sim_time=120.0)
    assert result.completed_operations == 120
    digests = {replica.service.digest() for replica in cluster.replicas.values()}
    assert len(digests) == 1
    # Balances/state actually changed (the EVM really ran).
    ledger = next(iter(cluster.replicas.values())).service
    assert ledger.world.get_nonce(workload.trace.accounts[0]) >= 0
    assert len(ledger.receipts) >= 120


@pytest.mark.parametrize("topology", ["continent", "world"])
def test_wan_topologies_reach_agreement(topology):
    """The paper's WAN deployments: agreement and full completion hold when
    replicas are spread over 5 (continent) or 15 (world) regions."""
    cluster, result = run_small_cluster(
        "sbft-c0",
        f=2,
        num_clients=3,
        requests_per_client=4,
        topology=topology,
        max_sim_time=240.0,
        config_overrides={"fast_path_timeout": 0.5, "client_retry_timeout": 5.0},
    )
    assert result.run.completed_requests == 12
    assert_agreement(cluster)
    # Every replica executed every block (no stragglers left behind).
    executed = {replica.last_executed for replica in cluster.replicas.values()}
    assert len(executed) == 1


def test_world_topology_has_higher_latency_than_continent():
    results = {}
    for topology in ("continent", "world"):
        cluster = build_cluster(
            "sbft-c0",
            f=1,
            num_clients=2,
            topology=topology,
            batch_size=2,
            config_overrides={"batch_timeout": 0.01, "fast_path_timeout": 0.3},
        )
        results[topology] = cluster.run(
            KVWorkload(requests_per_client=5, batch_size=2, seed=3), max_sim_time=120.0
        )
    assert results["world"].mean_latency > results["continent"].mean_latency


def test_network_drop_rate_does_not_block_progress():
    """The model allows finite message loss; clients retry and finish."""
    cluster = build_cluster(
        "sbft-c0",
        f=1,
        num_clients=2,
        topology="lan",
        batch_size=2,
        drop_rate=0.02,
        config_overrides={
            "batch_timeout": 0.01,
            "fast_path_timeout": 0.05,
            "client_retry_timeout": 1.0,
            "view_change_timeout": 1.0,
        },
    )
    result = cluster.run(KVWorkload(requests_per_client=4, batch_size=2, seed=4), max_sim_time=240.0)
    assert result.run.completed_requests == 8


def test_deterministic_given_seed():
    def run_once():
        cluster = build_cluster(
            "sbft-c0", f=1, num_clients=2, topology="lan", batch_size=2, seed=123,
            config_overrides={"batch_timeout": 0.01, "fast_path_timeout": 0.05},
        )
        result = cluster.run(KVWorkload(requests_per_client=4, batch_size=2, seed=9), max_sim_time=60.0)
        return (result.network_messages, round(result.mean_latency, 9), result.sim_time)

    assert run_once() == run_once()
