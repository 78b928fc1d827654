"""The five benchmark workloads: configuration, inputs and rationale.

Each workload is a fixed deployment (protocol, f, topology, clients, timers,
faults) plus request streams generated from ``--seed``.  The *simulator* seed
is pinned to :data:`SIM_SEED`: the program under test receives only generated
inputs, and for the KV workloads the simulated outcome does not depend on
which keys are written, so ``sim_*`` metrics and every counter repeat exactly
across reps and across ``--seed`` values (the EVM trace's transaction mix does
move its simulated numbers, by about 0.1 %).

Sizes are the only tuned quantity.  They put one rep at 1–1.5 s of host time
on the reference box (2 cores, Python 3.11); see README.md, "Run protocol",
for why reps are that short and how many make one measurement.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

from repro.protocols.cluster import Cluster, build_cluster
from repro.services.authenticated_kv import AuthenticatedKVStore
from repro.services.interface import Operation
from repro.sim.faults import FaultPlan
from repro.workloads.ethereum_workload import EthereumWorkload
from repro.workloads.kv_workload import KVWorkload

#: Simulator seed of every workload (network jitter, trusted-setup keys).
SIM_SEED = 0

#: Timer overrides of the fault sweep: short enough that fallback, view change
#: and client retry all happen within a seconds-long simulated run.
FAULT_TIMERS = {
    "fast_path_timeout": 0.05,
    "batch_timeout": 0.01,
    "view_change_timeout": 1.0,
    "client_retry_timeout": 1.5,
    "checkpoint_interval": 8,
}


class HotKeyReadWriteWorkload:
    """Benchmark-owned workload: one operation per request, half reads and
    half writes over a small hot key set, so every memo and cache hits and
    the per-request path (intake, batching, reply cache, proofs) dominates."""

    name = "kv-hot-rw"

    def __init__(self, requests_per_client: int, hot_keys: int, seed: int):
        self.requests_per_client = requests_per_client
        self.hot_keys = hot_keys
        self.seed = seed

    def service_factory(self) -> AuthenticatedKVStore:
        return AuthenticatedKVStore()

    def client_operations(self, client_id: int) -> List[List[Operation]]:
        rng = random.Random(self.seed * 1_000_003 + client_id)
        requests = []
        for timestamp in range(self.requests_per_client):
            key = f"hot-{rng.randrange(self.hot_keys)}"
            if rng.random() < 0.5:
                op = AuthenticatedKVStore.make_get(key, client_id=client_id, timestamp=timestamp)
            else:
                op = AuthenticatedKVStore.make_put(
                    key, "v" * 64, client_id=client_id, timestamp=timestamp
                )
            requests.append([op])
        return requests


@dataclass(frozen=True)
class WorkloadSpec:
    """One named workload.

    ``build(seed, smoke)`` returns the un-run cluster and the workload object
    to hand to ``Cluster.run``; ``smoke`` shrinks request counts only.
    ``load`` states the closed-loop shape (clients × window).
    """

    name: str
    why: str
    load: str
    build: Callable[[int, bool], Tuple[Cluster, Any]]


def _kv_sbft_fast(seed: int, smoke: bool) -> Tuple[Cluster, Any]:
    cluster = build_cluster(
        "sbft-c8", f=16, c=2, num_clients=64, topology="continent", batch_size=16, seed=SIM_SEED
    )
    return cluster, KVWorkload(requests_per_client=1 if smoke else 16, batch_size=8, seed=seed)


def _kv_pbft_quadratic(seed: int, smoke: bool) -> Tuple[Cluster, Any]:
    cluster = build_cluster(
        "pbft", f=16, num_clients=64, topology="continent", batch_size=16, seed=SIM_SEED
    )
    return cluster, KVWorkload(requests_per_client=1 if smoke else 4, batch_size=8, seed=seed)


def _evm_sbft_lan(seed: int, smoke: bool) -> Tuple[Cluster, Any]:
    cluster = build_cluster(
        "sbft-c0", f=1, num_clients=8, topology="lan", batch_size=4, seed=SIM_SEED
    )
    workload = EthereumWorkload(
        num_transactions=1_500 if smoke else 24_000, transfer_fraction=0.1, seed=7 + seed
    )
    return cluster, workload


def _kv_sbft_viewchange(seed: int, smoke: bool) -> Tuple[Cluster, Any]:
    f = 4
    n = 3 * f + 1
    # Primary of view 0 crashes first (view change), then one backup: with
    # c=0 a single dead replica denies the fast path its n signatures, so
    # every later block takes the linear-PBFT slow path.
    faults = FaultPlan.crash_first(1, at_time=1.0).extend(
        FaultPlan.crash_backups(1, n, at_time=4.0)
    )
    cluster = build_cluster(
        "sbft-c0",
        f=f,
        num_clients=16,
        topology="continent",
        batch_size=8,
        seed=SIM_SEED,
        fault_plan=faults,
        config_overrides=dict(FAULT_TIMERS),
    )
    return cluster, KVWorkload(requests_per_client=20 if smoke else 64, batch_size=8, seed=seed)


def _kv_sbft_pipelined_rw(seed: int, smoke: bool) -> Tuple[Cluster, Any]:
    cluster = build_cluster(
        "sbft-c0",
        f=1,
        num_clients=32,
        topology="lan",
        batch_size=4,
        seed=SIM_SEED,
        config_overrides={"batch_policy": "adaptive", "client_max_outstanding": 8},
    )
    workload = HotKeyReadWriteWorkload(
        requests_per_client=16 if smoke else 400, hot_keys=256, seed=seed
    )
    return cluster, workload


WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            "kv-sbft-fast",
            "paper's headline: sbft-c8 f=16 c=2 (n=53) on the fast path over a continent WAN; "
            "core + crypto.sigs + services do the work, largest memory",
            "64 clients x window 1, 8 puts/request, block batch 16",
            _kv_sbft_fast,
        ),
        WorkloadSpec(
            "kv-pbft-quadratic",
            "the baseline: pbft f=16 (n=49), all-to-all traffic; sim kernel + network + pbft + "
            "hashing dominate and SBFT replica code is idle",
            "64 clients x window 1, 8 puts/request, block batch 16",
            _kv_pbft_quadratic,
        ),
        WorkloadSpec(
            "evm-sbft-lan",
            "execution-bound: EVM contract calls on sbft-c0 f=1 over a LAN; evm + services + "
            "hashing/merkle dominate, consensus and simulator are under 5 %",
            "8 clients x window 1, ~12 KB transaction chunks, block batch 4",
            _evm_sbft_lan,
        ),
        WorkloadSpec(
            "kv-sbft-viewchange",
            "the fallback: primary crash then a dead backup at c=0 force a view change and the "
            "slow path; timers, client retries and checkpoints run hot",
            "16 clients x window 1, 8 puts/request, block batch 8",
            _kv_sbft_viewchange,
        ),
        WorkloadSpec(
            "kv-sbft-pipelined-rw",
            "many small mixed requests: 50 % gets / 50 % puts on 256 hot keys, pipelined clients, "
            "adaptive batching; client intake, reply cache and per-op proofs dominate",
            "32 clients x window 8, 1 op/request, adaptive batching",
            _kv_sbft_pipelined_rw,
        ),
    )
}
