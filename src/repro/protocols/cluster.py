"""Cluster builder and experiment runner.

A :class:`Cluster` wires together a simulator, a network topology, ``n``
replicas of the chosen protocol variant, the trusted setup and a set of
closed-loop clients, runs a workload to completion (or a time limit) and
returns a :class:`ClusterResult` with the throughput/latency summary plus the
network traffic counters used by the linearity analyses.

This is the public entry point most examples and benchmarks use::

    cluster = build_cluster("sbft-c0", f=1, num_clients=4, topology="continent")
    result = cluster.run(KVWorkload(requests_per_client=50, batch_size=8))
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core import execution_cache
from repro.core.client import SBFTClient
from repro.core.config import SBFTConfig
from repro.core.keys import TrustedSetup
from repro.core.replica import SBFTReplica
from repro.crypto.costs import CryptoCosts, DEFAULT_COSTS
from repro.errors import ConfigurationError
from repro.metrics.collector import LatencyRecorder, RunResult
from repro.pbft.replica import PBFTReplica
from repro.protocols.registry import ProtocolSpec, get_protocol
from repro.services.interface import AuthenticatedService
from repro.sim.events import Simulator
from repro.sim.faults import FaultInjector, FaultPlan
from repro.sim.latency import make_topology
from repro.sim.network import Network


@dataclass
class ClusterResult:
    """Everything a benchmark needs from one run."""

    run: RunResult
    replica_stats: Dict[int, Dict[str, int]] = field(default_factory=dict)
    client_stats: Dict[int, Dict[str, int]] = field(default_factory=dict)
    network_messages: int = 0
    network_bytes: int = 0
    per_type_messages: Dict[str, int] = field(default_factory=dict)
    sim_time: float = 0.0
    events_processed: int = 0
    faults_planned: int = 0      # fault actions in the cluster's plan
    faults_fired: int = 0        # of those, the actions that activated
    max_view: int = 0            # highest view a non-crashed replica ended in
    # The agreement monitor's verdict: ``(sequence, conflicting block
    # digests)`` wherever honest replicas executed different blocks.
    disagreements: Tuple[Tuple[int, Tuple[str, ...]], ...] = ()
    compromised: Tuple[int, ...] = ()  # replicas the monitor did not judge
    # Signed equivocation evidence; ``harness.run_point`` fills it on a
    # point with an adversary (``repro.adversary.forensics``).
    evidence: Any = ()
    # Populated only when the run was sanitized (``Cluster.run(sanitize=True)``):
    # the rolling decision-hash chain over every executed event and the
    # per-event records behind it.
    decision_hash: Optional[str] = None
    decision_trace: Optional[List[Tuple]] = None

    # Pass-throughs to ``run`` for the examples, the perf workers and tests.
    @property
    def throughput(self) -> float:
        return self.run.throughput

    @property
    def mean_latency(self) -> float:
        return self.run.mean_latency

    @property
    def median_latency(self) -> float:
        return self.run.median_latency

    @property
    def completed_operations(self) -> int:
        return self.run.completed_operations


class AgreementMonitor:
    """One block per sequence across honest replicas, checked on every run.

    Every replica's ``execution_observer`` reports each block it executes;
    the monitor keeps the first digest per sequence and every other digest an
    honest replica executed there.  It compares *block* digests, the decision
    at a sequence; a state digest also depends on every earlier block.
    Replicas in ``compromised`` are skipped (a byzantine replica executing
    garbage is not a protocol violation); the set is complete before the
    first event, so each observation is judged as it arrives.
    """

    def __init__(self, compromised: set):
        self.compromised = compromised
        self._decided: Dict[int, str] = {}
        self._conflicts: Dict[int, set] = {}

    def observe(self, node_id: int, sequence: int, digest: str) -> None:
        if node_id in self.compromised:
            return
        decided = self._decided.setdefault(sequence, digest)
        if decided != digest:
            self._conflicts.setdefault(sequence, {decided}).add(digest)

    def disagreements(self) -> Tuple[Tuple[int, Tuple[str, ...]], ...]:
        """``(sequence, sorted conflicting digests)``, by sequence."""
        return tuple(
            (sequence, tuple(sorted(self._conflicts[sequence])))
            for sequence in sorted(self._conflicts)
        )


class Cluster:
    """A fully wired simulated deployment of one protocol variant."""

    def __init__(
        self,
        spec: ProtocolSpec,
        config: SBFTConfig,
        num_clients: int = 4,
        topology: str = "lan",
        seed: int = 0,
        costs: CryptoCosts = DEFAULT_COSTS,
        fault_plan: Optional[FaultPlan] = None,
        drop_rate: float = 0.0,
    ):
        self.spec = spec
        self.config = config
        self.num_clients = num_clients
        self.topology = topology
        self.seed = seed
        self.costs = costs
        self.fault_plan = fault_plan
        self.drop_rate = drop_rate

        self.sim: Optional[Simulator] = None
        self.network: Optional[Network] = None
        self.replicas: Dict[int, Any] = {}
        self.clients: Dict[int, SBFTClient] = {}
        self.setup: Optional[TrustedSetup] = None
        self.injector: Optional[FaultInjector] = None
        self.recorder = LatencyRecorder()
        self.sanitizer: Optional[Any] = None
        # Replicas the agreement monitor does not judge: each run fills it
        # from the fault plan's ``byzantine`` entries, and an adversary's
        # ``install`` adds the replicas it takes over.
        self.compromised: set = set()
        self.monitor = AgreementMonitor(self.compromised)
        # Called as ``post_build(cluster)`` once the cluster is fully wired
        # (replicas, clients, network, fault plan) but before any event runs:
        # where ``harness.run_point`` installs a point's adversary, tests
        # unshare messages and the benchmark worker starts its clock.
        self.post_build: Optional[Any] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self, workload: Any, sanitize: bool = False) -> None:
        config = self.config
        n = config.n
        total_nodes = n + self.num_clients

        # Per-run hit/miss counters; every memo rides on objects built below.
        execution_cache.clear()
        self.sim = Simulator(seed=self.seed)
        self.sanitizer = None
        if sanitize:
            # Imported lazily: the sanitizer is opt-in instrumentation and the
            # analysis package depends on nothing in the hot path.
            from repro.analysis.sanitizer import DeterminismSanitizer

            self.sanitizer = DeterminismSanitizer(self.sim)
        latency = make_topology(self.topology, total_nodes)
        self.network = Network(self.sim, latency=latency, drop_rate=self.drop_rate)
        if self.sanitizer is not None:
            # The network owns a second RNG (derived from the simulator's);
            # its draws must be counted too.
            self.sanitizer.track_rng(self.network)
        self.setup = TrustedSetup(config, seed=self.seed)
        self.recorder = LatencyRecorder()

        if hasattr(workload, "set_num_clients"):
            workload.set_num_clients(self.num_clients)

        client_directory = {i: n + i for i in range(self.num_clients)}
        # The PKI's public half, read-only and shared by every PBFT replica
        # (vote verification) and every client (f+1 reply verification).
        replica_verify_keys = {i: self.setup.replica_verify_key(i) for i in range(n)}

        # Replicas.
        collector_groups: Dict[Tuple, Tuple[int, ...]] = {}
        for replica_id in range(n):
            service = workload.service_factory()
            if self.spec.kind == "pbft":
                replica = PBFTReplica(
                    sim=self.sim,
                    network=self.network,
                    node_id=replica_id,
                    config=config,
                    signing_key=self.setup.replica_keys(replica_id).signing_key,
                    verify_keys=replica_verify_keys,
                    service=service,
                    costs=self.costs,
                    client_directory=client_directory,
                )
            else:
                replica = SBFTReplica(
                    sim=self.sim,
                    network=self.network,
                    node_id=replica_id,
                    config=config,
                    keys=self.setup.replica_keys(replica_id),
                    service=service,
                    costs=self.costs,
                    client_directory=client_directory,
                    collector_groups=collector_groups,
                )
            self.network.register(replica)
            self.replicas[replica_id] = replica

        # One extra service instance only used by clients to verify Merkle
        # proofs (verification is state-independent).
        verifier = workload.service_factory()
        if not isinstance(verifier, AuthenticatedService):
            raise ConfigurationError(
                f"{type(workload).__name__} serves {type(verifier).__name__}, which is not an "
                "AuthenticatedService: replicas sign its state digest and clients check its proofs"
            )

        # Clients.
        for client_index in range(self.num_clients):
            node_id = n + client_index
            requests = workload.client_operations(client_index)
            client = SBFTClient(
                sim=self.sim,
                network=self.network,
                node_id=node_id,
                client_id=client_index,
                config=config,
                signing_key=self.setup.client_signing_key(client_index),
                requests=requests,
                recorder=self.recorder,
                verifier=verifier,
                costs=self.costs,
                start_delay=0.001 * client_index,
                replica_verify_keys=replica_verify_keys,
                pi_scheme=self.setup.pi,
            )
            self.network.register(client)
            self.clients[client_index] = client

        self.injector = None
        faults = self.fault_plan.faults if self.fault_plan is not None else []
        if faults:
            self.injector = FaultInjector(self.sim, self.replicas, network=self.network)
            self.injector.apply(self.fault_plan)
        self.compromised = {spec.replica_id for spec in faults if spec.kind == "byzantine"}
        self.monitor = AgreementMonitor(self.compromised)
        for replica in self.replicas.values():
            replica.execution_observer = self.monitor.observe

        if self.post_build is not None:
            self.post_build(self)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(
        self,
        workload: Any,
        max_sim_time: float = 300.0,
        max_events: Optional[int] = None,
        label: Optional[str] = None,
        timeline_bucket: Optional[float] = None,
        fault_phase: Optional[tuple] = None,
        sanitize: bool = False,
    ) -> ClusterResult:
        """Build the cluster, run the workload and summarize the results.

        ``timeline_bucket`` (seconds) attaches a windowed throughput/latency
        :class:`repro.metrics.collector.Timeline` to the result; a
        ``fault_phase`` pair of absolute ``(fault_start, fault_end)`` times
        additionally attaches before/during/after-fault phase aggregates
        (both used by the fault-sweep experiments).

        ``sanitize`` turns on the determinism sanitizer
        (:mod:`repro.analysis.sanitizer`): the result then carries a
        ``decision_hash`` chain and per-event ``decision_trace``.
        """
        self._build(workload, sanitize=sanitize)
        assert self.sim is not None and self.network is not None

        # O(1) completion check: each not-yet-done client fires ``on_done``
        # exactly once (inside the event that completes its last request), and
        # the last one stops the simulator.  ``Simulator.run`` honours a stop
        # request at the same point it would have evaluated a ``stop_when``
        # predicate — after the event's callback and trace hook — so runs are
        # event-for-event identical to the old every-event all-clients scan.
        sim = self.sim
        pending_clients = sum(1 for client in self.clients.values() if not client.done)
        if pending_clients == 0:
            sim.run(until=max_sim_time, max_events=max_events, stop_when=lambda: True)
        else:
            remaining = [pending_clients]

            def _one_client_done() -> None:
                remaining[0] -= 1
                if remaining[0] == 0:
                    sim.stop()

            for client in self.clients.values():
                if not client.done:
                    client.on_done = _one_client_done
            sim.run(until=max_sim_time, max_events=max_events)

        duration = self.recorder.last_completion or self.sim.now or 1.0
        run = self.recorder.summary(duration=duration, label=label or self.spec.name)
        run.messages_sent = self.network.stats.messages_sent
        run.bytes_sent = self.network.stats.bytes_sent
        if timeline_bucket is not None:
            run.timeline = self.recorder.timeline(timeline_bucket, duration=duration)
        if fault_phase is not None:
            fault_start, fault_end = fault_phase
            run.phases = self.recorder.phase_summary(fault_start, fault_end, duration=duration)
        views = [replica.view for replica in self.replicas.values() if not replica.crashed]

        return ClusterResult(
            run=run,
            replica_stats={rid: dict(r.stats) for rid, r in self.replicas.items()},
            client_stats={cid: dict(c.stats) for cid, c in self.clients.items()},
            network_messages=self.network.stats.messages_sent,
            network_bytes=self.network.stats.bytes_sent,
            per_type_messages=dict(self.network.stats.per_type_count),
            sim_time=self.sim.now,
            events_processed=self.sim.events_processed,
            faults_planned=len(self.fault_plan) if self.fault_plan is not None else 0,
            faults_fired=len(self.injector.applied) if self.injector is not None else 0,
            max_view=max(views) if views else 0,
            disagreements=self.monitor.disagreements(),
            compromised=tuple(sorted(self.compromised)),
            decision_hash=self.sanitizer.chain_hash if self.sanitizer else None,
            decision_trace=list(self.sanitizer.records) if self.sanitizer else None,
        )


def build_cluster(
    protocol: str,
    f: int = 1,
    c: Optional[int] = None,
    num_clients: int = 4,
    topology: str = "lan",
    batch_size: int = 4,
    seed: int = 0,
    costs: CryptoCosts = DEFAULT_COSTS,
    fault_plan: Optional[FaultPlan] = None,
    drop_rate: float = 0.0,
    config_overrides: Optional[Dict[str, Any]] = None,
) -> Cluster:
    """Build a cluster for one of the registered protocol variants.

    Parameters mirror the paper's experimental knobs: ``f`` (tolerated
    Byzantine faults), ``c`` (redundant servers; ``None`` applies the one n/c
    rule, :func:`repro.protocols.registry.protocol_sizes`), ``num_clients``,
    ``topology`` (``lan`` / ``continent`` / ``world``) and ``batch_size``
    (client requests per decision block).
    """
    if f < 1:
        raise ConfigurationError("f must be >= 1")
    spec = get_protocol(protocol)
    overrides = dict(config_overrides or {})
    overrides.setdefault("batch_size", batch_size)
    config = spec.build_config(f=f, c=c, **overrides)
    return Cluster(
        spec=spec,
        config=config,
        num_clients=num_clients,
        topology=topology,
        seed=seed,
        costs=costs,
        fault_plan=fault_plan,
        drop_rate=drop_rate,
    )
