"""Importable helpers shared by the test suite.

These live outside ``conftest.py`` so test modules can ``from helpers import
...`` unambiguously: ``conftest`` modules are imported by pytest under the
bare name ``conftest``, and when both ``tests/`` and ``benchmarks/`` are
collected from the repo root the name resolves to whichever directory pytest
visited first.  Fixtures stay in ``tests/conftest.py``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import os
import random
import sys
import time

from repro.core import execution_cache
from repro.core.keys import TrustedSetup
from repro.core.messages import ClientRequest
from repro.core.replica import SBFTReplica
from repro.crypto.signatures import generate_keypair
from repro.experiments import throughput
from repro.experiments.harness import point_cluster
from repro.pbft.replica import PBFTReplica
from repro.protocols.cluster import Cluster, build_cluster
from repro.services.authenticated_kv import AuthenticatedKVStore
from repro.sim.events import Simulator
from repro.sim.latency import lan_topology
from repro.sim.network import Network
from repro.workloads.ethereum_workload import EthereumWorkload
from repro.workloads.kv_workload import KVWorkload


def run_small_cluster(
    protocol: str,
    f: int = 1,
    c=None,
    num_clients: int = 2,
    requests_per_client: int = 6,
    kv_batch: int = 2,
    batch_size: int = 2,
    topology: str = "lan",
    fault_plan=None,
    config_overrides=None,
    max_sim_time: float = 120.0,
    seed: int = 0,
    post_build=None,
    sanitize: bool = False,
):
    """Build and run a small cluster; returns (cluster, result).
    ``post_build(cluster)`` runs once everything is wired and before the first
    event — ``post_build=unshare`` is the same run with nothing shared;
    ``sanitize=True`` puts the decision-hash chain on the result.  Every
    replica's executions are recorded (:func:`record_executions`)."""
    overrides = {
        "fast_path_timeout": 0.05,
        "batch_timeout": 0.01,
        "view_change_timeout": 1.0,
        "client_retry_timeout": 1.5,
    }
    overrides.update(config_overrides or {})
    cluster = build_cluster(
        protocol,
        f=f,
        c=c,
        num_clients=num_clients,
        topology=topology,
        batch_size=batch_size,
        seed=seed,
        fault_plan=fault_plan,
        config_overrides=overrides,
    )

    def wired(cluster):
        record_executions(cluster)
        if post_build is not None:
            post_build(cluster)

    cluster.post_build = wired
    workload = KVWorkload(requests_per_client=requests_per_client, batch_size=kv_batch, seed=seed + 1)
    result = cluster.run(workload, max_sim_time=max_sim_time, sanitize=sanitize)
    return cluster, result


def fault_point(scenario, protocol="sbft-c0", seed=0):
    """The small ``faults`` panel's point of one scenario (by name) and protocol."""
    faults = throughput.panel("small", "faults")
    (fault,) = (fault for fault in faults.faults if fault.name == scenario)
    (point,) = dataclasses.replace(faults, protocols=(protocol,), faults=(fault,)).points(seed)
    return point


def crash_restart_cluster(service, protocol="sbft-c0"):
    """The small ``faults`` panel's ``crash-restart`` cluster (replica 3
    crashes and is restored by state transfer), not yet run, with the
    workload it runs: the point's own KV workload, or a 1 500-transaction
    Ethereum stream for ``service == "ledger"``.  Returns ``(cluster,
    workload, max_sim_time)``."""
    from repro.experiments.harness import point_cluster

    point = fault_point("crash-restart", protocol)
    cluster = point_cluster(point)
    if service == "kv":
        workload = point.workload.build(point)
    else:
        workload = EthereumWorkload(
            num_transactions=1500, num_accounts=40, chunk_bytes=600,
            num_clients=point.clients, seed=1,
        )
    return cluster, workload, point.max_sim_time


def unshared_copy(value):
    """``value`` rebuilt from its ``init=True`` fields, recursively through
    dataclasses and tuples: every ``init=False`` stash slot restarts at its
    default and ``__post_init__`` recomputes what it computes (``size_bytes``,
    ``request_id``).  Nothing is skipped; anything else is passed through."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return type(value)(**{
            field.name: unshared_copy(getattr(value, field.name))
            for field in dataclasses.fields(value) if field.init
        })
    if type(value) is tuple:  # a BlockOperations only ever sits in a stash slot
        return tuple(unshared_copy(item) for item in value)
    return value


def unshare(cluster):
    """``Cluster.post_build`` hook: the same program with nothing shared.

    One collector or primary message reaches n replicas as *one* frozen
    object, and whoever first needs a derived value stashes it there.  This
    hands every recipient its own :func:`unshared_copy` of every message (the
    interceptor draws no RNG, and under one ``broadcast_bulk`` is the
    decision-identical ``send`` loop) and every ``SBFTReplica`` a private
    collector-group dict, so every stash is recomputed by whoever reads it.
    A fixed-seed run must decide exactly what the shared run decides: a
    difference means some stash is not a pure function of what its guard
    compares (it depends on who computed it, when, or how often).
    """
    cluster.network.set_interceptor(lambda src, dst, message: (unshared_copy(message), 0.0))
    for replica in cluster.replicas.values():
        if isinstance(replica, SBFTReplica):
            replica._group_memo = {}


def execute_everywhere(monkeypatch):
    """The uncached reference run: every replica executes every block itself
    (no entry on the shared block is ever found)."""
    monkeypatch.setattr(execution_cache, "lookup", lambda operations, state_key: None)


def on_execute(cluster, callback):
    """``Cluster.post_build`` helper: ``callback(replica, sequence, digest)``
    runs after each block a replica executes, on its way to the agreement
    monitor, while the block's log slot and journal entry still exist (the
    stable point collects both soon after)."""
    for replica in cluster.replicas.values():
        def observe(node_id, sequence, digest, replica=replica, monitor=replica.execution_observer):
            callback(replica, sequence, digest)
            monitor(node_id, sequence, digest)

        replica.execution_observer = observe


def record_executions(cluster):
    """``Cluster.post_build`` hook: every block each replica executes, as
    ``(sequence, block digest)`` in execution order, is appended to
    ``cluster.executions[replica_id]``."""
    cluster.executions = {replica_id: [] for replica_id in cluster.replicas}

    def record(replica, sequence, digest):
        cluster.executions[replica.node_id].append((sequence, digest))

    on_execute(cluster, record)


def executed_histories(cluster):
    """Per-replica executed history of a cluster run with
    :func:`record_executions`: the ``(sequence, digest)`` of every block a
    non-crashed replica executed (the golden runs' record of what each
    replica decided)."""
    return {
        replica_id: list(cluster.executions[replica_id])
        for replica_id, replica in cluster.replicas.items() if not replica.crashed
    }


def assert_agreement(cluster):
    """Assert no two honest replicas executed different blocks at a sequence.

    Reads the cluster's agreement monitor, which saw every execution as it
    happened: sequences a checkpoint has since pruned and replicas that
    executed before they crashed count too."""
    disagreements = cluster.monitor.disagreements()
    assert not disagreements, f"replicas disagree at (sequence, digests): {disagreements}"


def make_bare_replica(replica_cls, config, node_id=0, seed=2):
    """One registered replica on a bare ``Simulator`` + ``Network`` (no
    ``Cluster``); returns ``(sim, network, replica)``.  ``replica_cls`` is
    ``SBFTReplica``, ``PBFTReplica`` or a subclass — the constructors differ
    only in how the keys arrive."""
    sim = Simulator(seed=seed)
    network = Network(sim, latency=lan_topology(config.n + 4), seed=seed)
    setup = TrustedSetup(config, seed=seed)
    if issubclass(replica_cls, PBFTReplica):
        replica = replica_cls(
            sim=sim, network=network, node_id=node_id, config=config,
            signing_key=setup.replica_keys(node_id).signing_key,
            verify_keys={i: setup.replica_verify_key(i) for i in range(config.n)},
            service=AuthenticatedKVStore(),
        )
    else:
        replica = replica_cls(
            sim=sim, network=network, node_id=node_id, config=config,
            keys=setup.replica_keys(node_id), service=AuthenticatedKVStore(),
        )
    network.register(replica)
    return sim, network, replica


def make_request(timestamp, client_id=0):
    """A one-put client request (the signature is never verified by replicas)."""
    op = AuthenticatedKVStore.make_put(f"k{timestamp}", "v", client_id=client_id, timestamp=timestamp)
    return ClientRequest(client_id=client_id, timestamp=timestamp, operations=(op,),
                         signature=generate_keypair(f"client-{client_id}").sign("x"))


#: What a simulated run must never read: the host's clocks, the OS entropy
#: pool and the module-level ``random`` generator (every function ``random``
#: exports that is bound to its hidden instance, ``random.seed`` included).
#: Only the seeded ``random.Random`` instances a run is built with may draw.
AMBIENT = (
    [(time, name) for name in ("time", "monotonic", "perf_counter", "process_time")]
    + [(time, name + "_ns") for name in ("time", "monotonic", "perf_counter", "process_time")]
    + [(os, "urandom")]
    + [(random, name) for name in random.__all__
       if isinstance(getattr(getattr(random, name), "__self__", None), random.Random)]
)


def _trap(module, name):
    def read(*args, **kwargs):
        caller = sys._getframe(1)
        raise AssertionError(
            f"{caller.f_code.co_filename}:{caller.f_lineno}: "
            f"{module.__name__}.{name}() read inside a simulated run"
        )
    return read


@contextlib.contextmanager
def clock_trap():
    """Every ``AMBIENT`` function raises, naming its caller's ``file:line``.
    Nests: an inner trap restores the outer one's."""
    saved = [(module, name, getattr(module, name)) for module, name in AMBIENT]
    for module, name, _ in saved:
        setattr(module, name, _trap(module, name))
    try:
        yield
    finally:
        for module, name, value in saved:
            setattr(module, name, value)


@contextlib.contextmanager
def clocks_trapped_in_runs():
    """``Simulator.run`` and ``Cluster.run`` (which builds the workload
    before the event loop) each run inside :func:`clock_trap`; host timing
    around a run, as the sweeps do it, stays outside."""
    originals = {cls: cls.run for cls in (Simulator, Cluster)}

    def trapped(run):
        @functools.wraps(run)
        def run_without_clocks(*args, **kwargs):
            with clock_trap():
                return run(*args, **kwargs)
        return run_without_clocks

    for cls, run in originals.items():
        cls.run = trapped(run)
    try:
        yield
    finally:
        for cls, run in originals.items():
            cls.run = run
