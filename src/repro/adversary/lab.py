"""Episode runner and oracles for the adversary lab.

An *episode* is one fixed-seed simulation of a small cluster with exactly one
adversary strategy installed, summarized by two oracle verdicts:

safety
    No two honest replicas execute different blocks at the same sequence.
    Replicas report every execution through their ``execution_observer`` hook
    (the *block* digest — the decision at that sequence; the state digest
    also depends on every block executed before it).

liveness
    Every correct client completes all of its requests within the episode's
    simulated-time budget.  Strategies are scripted so that a sound protocol
    recovers (delays are bounded, silence windows close, spam stays below the
    join threshold); an episode that still starves a client is a violation.

Episodes are pure functions of their :class:`EpisodeSpec`, which is the whole
point: a violating ``(strategy, params, seed)`` triple replays exactly, can
be shrunk by :mod:`repro.adversary.minimize` and lands in
``tests/adversary_corpus/`` as permanent regression coverage.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.adversary.forensics import MessageLog, find_equivocations
from repro.adversary.strategies import get_strategy
from repro.core.config import SBFTConfig
from repro.protocols.cluster import Cluster, build_cluster
from repro.records import frozen_record

#: Episode cluster shape: the smallest group that can survive one byzantine
#: replica (f=1, n=4 for both protocol stacks at c=0).
EPISODE_F = 1
EPISODE_CLIENTS = 2
EPISODE_REQUESTS_PER_CLIENT = 6
EPISODE_BATCH = 2  # >= 2 so equivocating proposals really conflict
EPISODE_MAX_SIM_TIME = 60.0

#: Short timers so view changes and client retries resolve inside the budget
#: (same spirit as the fault sweep's CONFIG_OVERRIDES).
EPISODE_CONFIG_OVERRIDES: Dict[str, Any] = {
    "fast_path_timeout": 0.05,
    "batch_timeout": 0.01,
    "view_change_timeout": 1.0,
    "client_retry_timeout": 1.5,
    "checkpoint_interval": 4,
}

#: The planted weakness: a two-vote prepare/commit quorum at f=1 lets an
#: equivocating primary commit both parity halves.
PLANTED_WEAK_QUORUM = 2


@dataclass(frozen=True)
class WeakQuorumConfig(SBFTConfig):
    """The honest configuration with the planted weakness: the linear-PBFT
    prepare/commit threshold (``tau_threshold``, which ``TrustedSetup`` deals
    τ from) and the PBFT replica quorum (``pbft_quorum``) are both
    :data:`PLANTED_WEAK_QUORUM`, so the search has a real safety violation to
    find.  Only ``plant_weak_quorum`` episodes build one."""

    @property
    def tau_threshold(self) -> int:
        return PLANTED_WEAK_QUORUM

    @property
    def pbft_quorum(self) -> int:
        return PLANTED_WEAK_QUORUM


@frozen_record
class EpisodeSpec:
    """One reproducible episode: ``(strategy, params, seed)`` plus context."""

    protocol: str
    strategy: str
    seed: int
    params: Tuple[Tuple[str, Any], ...] = ()
    plant_weak_quorum: bool = False

    def with_params(self, params: Dict[str, Any]) -> "EpisodeSpec":
        return EpisodeSpec(
            protocol=self.protocol,
            strategy=self.strategy,
            seed=self.seed,
            params=tuple(sorted(params.items())),
            plant_weak_quorum=self.plant_weak_quorum,
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "protocol": self.protocol,
            "strategy": self.strategy,
            "seed": self.seed,
            "params": dict(self.params),
            "plant_weak_quorum": self.plant_weak_quorum,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "EpisodeSpec":
        return cls(
            protocol=data["protocol"],
            strategy=data["strategy"],
            seed=int(data["seed"]),
            params=tuple(sorted(dict(data.get("params", {})).items())),
            plant_weak_quorum=bool(data.get("plant_weak_quorum", False)),
        )

    def describe(self) -> str:
        params = ";".join(f"{name}={value}" for name, value in self.params)
        planted = "+weak-quorum" if self.plant_weak_quorum else ""
        return f"{self.protocol}/{self.strategy}{planted}@{self.seed}[{params}]"


class SafetyOracle:
    """Per-sequence execution agreement across honest replicas."""

    def __init__(self) -> None:
        # sequence -> digest -> replica ids that executed it (append order).
        self._executions: Dict[int, Dict[str, List[int]]] = {}

    def observe(self, node_id: int, sequence: int, digest: str) -> None:
        per_digest = self._executions.setdefault(sequence, {})
        per_digest.setdefault(digest, []).append(node_id)

    def violations(self, honest: frozenset) -> Tuple[Tuple[int, Tuple[str, ...]], ...]:
        """-> ((sequence, conflicting digests)) over honest replicas only."""
        found: List[Tuple[int, Tuple[str, ...]]] = []
        for sequence in sorted(self._executions):
            per_digest = self._executions[sequence]
            conflicting = sorted(
                digest
                for digest in per_digest
                if any(replica in honest for replica in per_digest[digest])
            )
            if len(conflicting) > 1:
                found.append((sequence, tuple(conflicting)))
        return tuple(found)


class AdversaryLab:
    """The strategy's handle onto one fully built episode cluster.

    Exposes replica-local state (``replicas``), the message plane
    (``network`` / ``set_interceptor``) and the event clock (``sim``), and
    records which replicas the strategy compromised — the safety oracle only
    judges the remaining honest replicas, and the compromised set is what a
    forensic audit is expected to reconstruct independently.
    """

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        self.compromised: set = set()
        self.safety = SafetyOracle()
        self.message_log: Optional[MessageLog] = None

    @property
    def sim(self):
        return self.cluster.sim

    @property
    def network(self):
        return self.cluster.network

    @property
    def replicas(self):
        return self.cluster.replicas

    @property
    def config(self):
        return self.cluster.config

    @property
    def setup(self):
        return self.cluster.setup

    def compromise(self, replica_id: int) -> None:
        self.compromised.add(replica_id)

    def set_interceptor(self, interceptor) -> None:
        self.network.set_interceptor(interceptor)

    def honest(self) -> frozenset:
        return frozenset(
            replica_id
            for replica_id in self.cluster.replicas
            if replica_id not in self.compromised
        )


@dataclass(slots=True)
class EpisodeReport:
    """Oracle verdicts and accounting for one episode."""

    spec: EpisodeSpec
    safety_ok: bool
    liveness_ok: bool
    completed: int
    expected: int
    violations: Tuple[Tuple[int, Tuple[str, ...]], ...]
    compromised: Tuple[int, ...]
    evidence_count: int
    evidence: Any  # List[EquivocationEvidence] when forensics ran, else ()
    sim_time: float
    events_processed: int

    @property
    def ok(self) -> bool:
        return self.safety_ok and self.liveness_ok

    def verdict(self) -> str:
        if self.ok:
            return "ok"
        parts = []
        if not self.safety_ok:
            parts.append("SAFETY")
        if not self.liveness_ok:
            parts.append("LIVENESS")
        return "+".join(parts)


def run_episode(spec: EpisodeSpec, forensics: bool = False) -> EpisodeReport:
    """Run one fixed-seed episode and evaluate both oracles.

    With ``forensics`` a :class:`~repro.adversary.forensics.MessageLog` taps
    every sent protocol message and the report carries the reconstructed
    equivocation evidence (validly signed conflicting message pairs).
    """
    # Imported here, not at module top: the workload pulls in the service
    # registry, and the lab API (EpisodeSpec et al.) must stay importable
    # from analysis-only contexts.
    from repro.workloads.kv_workload import KVWorkload

    strategy_cls = get_strategy(spec.strategy)
    adversary = strategy_cls(dict(spec.params))
    cluster = build_cluster(
        spec.protocol,
        f=EPISODE_F,
        num_clients=EPISODE_CLIENTS,
        topology="lan",
        batch_size=EPISODE_BATCH,
        seed=spec.seed,
        config_overrides=EPISODE_CONFIG_OVERRIDES,
    )
    if spec.plant_weak_quorum:
        cluster.config = WeakQuorumConfig(**asdict(cluster.config))
    lab = AdversaryLab(cluster)
    if forensics:
        lab.message_log = MessageLog()

    def _arm(built: Cluster) -> None:
        if lab.message_log is not None:
            built.network.add_tap(lab.message_log.tap)
        adversary.install(lab)
        for replica in built.replicas.values():
            replica.execution_observer = lab.safety.observe

    cluster.post_build = _arm

    workload = KVWorkload(
        requests_per_client=EPISODE_REQUESTS_PER_CLIENT,
        batch_size=EPISODE_BATCH,
        seed=spec.seed + 1,
    )
    result = cluster.run(workload, max_sim_time=EPISODE_MAX_SIM_TIME)

    honest = lab.honest()
    violations = lab.safety.violations(honest)
    expected = EPISODE_CLIENTS * EPISODE_REQUESTS_PER_CLIENT
    completed = result.run.completed_requests
    all_done = all(client.done for client in cluster.clients.values())

    evidence: Any = ()
    if lab.message_log is not None:
        n = cluster.config.n
        verify_keys = {i: cluster.setup.replica_verify_key(i) for i in range(n)}
        schemes = {
            scheme.name: scheme
            for scheme in (cluster.setup.sigma, cluster.setup.tau, cluster.setup.pi)
        }
        evidence = find_equivocations(lab.message_log.records, verify_keys, schemes)

    return EpisodeReport(
        spec=spec,
        safety_ok=not violations,
        liveness_ok=all_done and completed >= expected,
        completed=completed,
        expected=expected,
        violations=violations,
        compromised=tuple(sorted(lab.compromised)),
        evidence_count=len(evidence),
        evidence=evidence,
        sim_time=result.sim_time,
        events_processed=result.events_processed,
    )
