"""A block's replay entry lives until every replica applied it, and a
ledger holds each distinct execution outcome once.

``repro.core.execution_cache.applied`` counts the applies on the shared
``BlockOperations``; the n-th frees ``replay``.  A replica that never applies
the block (crashed) leaves the entry to the log slot, and the hit/miss
counters do not move either way.  The ledger's results and receipts are one
shared object per distinct outcome (``LedgerService._execute_with``), so a
long transaction stream holds what differs, not what ran.
"""

import gc

import pytest

from helpers import run_small_cluster
from repro.core import execution_cache
from repro.evm.transactions import TransactionReceipt
from repro.protocols.cluster import build_cluster
from repro.services import kvstore, ledger
from repro.services.interface import OperationResult
from repro.sim.faults import FaultPlan
from repro.workloads.ethereum_workload import EthereumWorkload
from test_shared_execution_record import recorded  # noqa: F401 (fixture)


def _blocks(recorded):
    """Every ``BlockOperations`` a recorder offered a replay entry to."""
    return [operations for operations, _state_key, _entry in recorded]


def _ethereum_workload():
    return EthereumWorkload(num_transactions=200, num_accounts=12, num_clients=2, seed=7)


def _ledger_run(protocol, fault_plan=None):
    cluster = build_cluster(
        protocol, f=1, num_clients=2, topology="lan", batch_size=2, seed=3, fault_plan=fault_plan
    )
    cluster.run(_ethereum_workload())
    return cluster


def _kv_run(protocol, fault_plan=None):
    cluster, result = run_small_cluster(
        protocol, f=1, num_clients=2, requests_per_client=8, seed=11, fault_plan=fault_plan
    )
    assert result.run.completed_requests == 16
    return cluster


RUNS = [("kv", "sbft-c0"), ("kv", "pbft"), ("ledger", "sbft-c0")]


@pytest.mark.parametrize("service, protocol", RUNS, ids=[f"{s}-{p}" for s, p in RUNS])
def test_an_entry_every_replica_applied_is_freed(service, protocol, recorded):
    cluster = (_kv_run if service == "kv" else _ledger_run)(protocol)
    n = len(cluster.replicas)
    executed = max(replica.last_executed for replica in cluster.replicas.values())
    blocks = _blocks(recorded)
    spent = [operations for operations in blocks if operations.applies == n]
    assert len(blocks) == executed and len(spent) >= executed - 1
    assert all(operations.replay is None for operations in spent)
    # A block some replica has yet to apply keeps its entry for it.
    assert all(operations.replay is not None for operations in blocks if operations.applies < n)


@pytest.mark.parametrize("service, protocol", RUNS, ids=[f"{s}-{p}" for s, p in RUNS])
def test_a_crashed_backup_leaves_its_blocks_entries_and_moves_no_counter(
    service, protocol, recorded, monkeypatch
):
    """Replica 3 is down from t=0 and applies nothing: every entry stays on
    its block, and the counters read as with no freeing at all, one miss and
    (live replicas - 1) hits per block."""
    run = _kv_run if service == "kv" else _ledger_run
    crashed = FaultPlan.crash_backups(1, 4, at_time=0.0)
    run(protocol, crashed)
    counters, blocks = execution_cache.stats(), _blocks(recorded)
    assert blocks
    assert all(operations.replay is not None for operations in blocks)
    assert all(operations.applies <= 3 for operations in blocks)

    monkeypatch.setattr(execution_cache, "applied", lambda operations, n: None)
    recorded.clear()
    run(protocol, crashed)
    assert execution_cache.stats() == counters
    assert len(recorded) == len(blocks)
    assert counters == {"misses": len(blocks), "hits": 2 * len(blocks)}


def test_a_ledger_holds_one_result_and_receipt_per_distinct_outcome():
    """On the benchmark's shape (``sbft-c0`` over a LAN, one recorder), the
    receipts alive after the run are the distinct receipts and the genesis
    receipts every replica's ledger keeps, and the results the distinct
    results and the stores' constant ones; the run executed many times that
    many transactions."""
    cluster = _ledger_run("sbft-c0")
    stores = [replica.service for replica in cluster.replicas.values()]
    receipts = {receipt for store in stores for receipt in store.receipts}
    genesis = len(stores) * len(_ethereum_workload().service_factory().receipts)
    results = {repr(result) for store in stores for sequence in store._block_order
               for result in store._journal_results[sequence]}
    constants = {id(value) for module in (kvstore, ledger) for value in vars(module).values()
                 if type(value) is OperationResult}
    assert len(stores[0].receipts) > 5 * len(receipts) > 5 * len(results)
    gc.collect()
    live = gc.get_objects()
    assert sum(type(item) is TransactionReceipt for item in live) <= len(receipts) + genesis
    assert sum(type(item) is OperationResult for item in live) <= len(results) + len(constants)
