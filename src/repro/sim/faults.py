"""Fault injection: crashes, stragglers, partitions and Byzantine behaviours.

The paper's three-mode system model (Section II) distinguishes

* the **asynchronous mode** — up to ``f`` Byzantine replicas, arbitrary delays;
* the **synchronous mode** — up to ``f`` Byzantine replicas, bounded delays;
* the **common mode** — up to ``c`` crashed/slow replicas, bounded delays.

A :class:`FaultPlan` describes which replicas misbehave and how; the
:class:`FaultInjector` applies the plan to a running cluster.

Fault activation times (``FaultSpec.at_time``) are **absolute simulation
times**: a plan applied mid-run (``sim.now > 0``) still activates each fault
at ``at_time``, or immediately if that time has already passed.  Recovery
faults (``restart``, ``heal``) undo earlier faults, which is what lets the
fault-sweep experiments script crash-then-restart and partition-then-heal
timelines (Section VIII's performance-under-failure scenarios).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.sim.events import Simulator
from repro.sim.network import Network
from repro.sim.process import Process

#: Every fault kind the injector knows how to activate.
FAULT_KINDS = (
    "crash",       # drop timers, ignore all future messages
    "slow",        # multiply the speed factor of every core of the replica
    "byzantine",   # hand the replica to the adversary (``FaultSpec.behaviour``)
    "partition",   # take down the links between the replica and ``peers``
    "isolate",     # drop all traffic to and from the replica
    "restart",     # recover a crashed replica (rejoin + state transfer)
    "heal",        # undo slow/partition/isolate faults on the replica
)


@dataclass(frozen=True)
class FaultSpec:
    """A single fault applied to one replica.

    ``kind`` is one of :data:`FAULT_KINDS`.  ``at_time`` is the **absolute
    simulation time** at which the fault activates (activation is immediate
    when the plan is applied after ``at_time`` has passed).  ``slow_factor``
    *multiplies* the costs on every core of the replica when ``kind ==
    "slow"`` — stacked slow faults compose, and ``heal`` restores the
    pre-fault factors.
    ``behaviour`` is what a ``byzantine`` fault does: it is called with the
    replica when the fault activates (see :mod:`repro.adversary.behaviours`;
    this module knows nothing else about it).  ``peers`` lists the replicas
    a ``partition`` fault cuts this replica off from.
    """

    replica_id: int
    kind: str = "crash"
    at_time: float = 0.0
    slow_factor: float = 5.0
    behaviour: Optional[Callable[[Process], None]] = None
    peers: Tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(f"unknown fault kind {self.kind!r}")
        if self.slow_factor < 1.0:
            raise ConfigurationError("slow_factor must be >= 1.0")
        if self.kind == "byzantine" and self.behaviour is None:
            raise ConfigurationError("byzantine fault needs a behaviour")
        if self.kind == "partition" and not self.peers:
            raise ConfigurationError("partition fault needs a non-empty peer set")


@dataclass
class FaultPlan:
    """A collection of faults applied to a cluster."""

    faults: list = field(default_factory=list)

    @classmethod
    def crash_first(cls, count: int, at_time: float = 0.0, node_ids: Optional[Sequence[int]] = None) -> "FaultPlan":
        """Crash the first ``count`` replicas (or an explicit id list)."""
        ids = list(node_ids) if node_ids is not None else list(range(count))
        return cls([FaultSpec(replica_id=i, kind="crash", at_time=at_time) for i in ids[:count]])

    @classmethod
    def crash_backups(cls, count: int, n: int, at_time: float = 0.0) -> "FaultPlan":
        """Crash ``count`` backup replicas (the highest ids, never replica 0).

        Replica 0 is the primary of view 0, so this models the paper's failure
        scenarios where crashed replicas are backups and the primary stays up.
        """
        if count > n - 1:
            raise ConfigurationError(
                f"cannot crash {count} backups in a cluster of {n} replicas "
                f"(replica 0 is the primary; at most {n - 1} backups exist)"
            )
        ids = list(range(n - 1, n - 1 - count, -1))
        return cls([FaultSpec(replica_id=i, kind="crash", at_time=at_time) for i in ids])

    @classmethod
    def slow(cls, node_ids: Iterable[int], factor: float = 5.0, at_time: float = 0.0) -> "FaultPlan":
        return cls([
            FaultSpec(replica_id=i, kind="slow", slow_factor=factor, at_time=at_time)
            for i in node_ids
        ])

    @classmethod
    def byzantine(
        cls, node_ids: Iterable[int], behaviour: Callable[[Process], None], at_time: float = 0.0
    ) -> "FaultPlan":
        return cls([
            FaultSpec(replica_id=i, kind="byzantine", behaviour=behaviour, at_time=at_time)
            for i in node_ids
        ])

    @classmethod
    def partition(cls, node_ids: Sequence[int], n: int, at_time: float = 0.0) -> "FaultPlan":
        """Partition ``node_ids`` away from the rest of an ``n``-replica cluster.

        Links *within* each side stay up; every link crossing the cut goes
        down in both directions.  Heal with :meth:`heal` on the same ids.
        """
        group = sorted(set(node_ids))
        others = tuple(i for i in range(n) if i not in set(group))
        if not group or not others:
            raise ConfigurationError("partition needs non-empty groups on both sides")
        return cls([
            FaultSpec(replica_id=i, kind="partition", at_time=at_time, peers=others)
            for i in group
        ])

    @classmethod
    def isolate(cls, node_ids: Iterable[int], at_time: float = 0.0) -> "FaultPlan":
        return cls([FaultSpec(replica_id=i, kind="isolate", at_time=at_time) for i in node_ids])

    @classmethod
    def restart(cls, node_ids: Iterable[int], at_time: float = 0.0) -> "FaultPlan":
        return cls([FaultSpec(replica_id=i, kind="restart", at_time=at_time) for i in node_ids])

    @classmethod
    def heal(cls, node_ids: Iterable[int], at_time: float = 0.0) -> "FaultPlan":
        return cls([FaultSpec(replica_id=i, kind="heal", at_time=at_time) for i in node_ids])

    def extend(self, other: "FaultPlan") -> "FaultPlan":
        return FaultPlan(self.faults + other.faults)

    def __len__(self) -> int:
        return len(self.faults)


#: Fault kinds that need access to the network fabric (``heal`` does not:
#: without a network it still restores CPU speed factors).
_NETWORK_KINDS = frozenset({"partition", "isolate"})


class FaultInjector:
    """Applies a :class:`FaultPlan` to a set of replicas at the right times."""

    def __init__(self, sim: Simulator, replicas: dict, network: Optional[Network] = None):
        self.sim = sim
        self.replicas = dict(replicas)
        self.network = network
        self.applied: list[FaultSpec] = []
        # Undo state for heal: pre-fault speed factors (one per core) and the
        # links this injector took down, per replica.
        self._original_speed: dict[int, tuple] = {}
        self._downed_links: dict[int, set] = {}

    def apply(self, plan: FaultPlan) -> None:
        # Validate the whole plan before arming any of it: a rejected plan
        # must leave nothing scheduled (no half-applied fault timelines).
        for spec in plan.faults:
            if spec.replica_id not in self.replicas:
                raise ConfigurationError(f"fault references unknown replica {spec.replica_id}")
            if spec.kind in _NETWORK_KINDS and self.network is None:
                raise ConfigurationError(
                    f"fault kind {spec.kind!r} needs a FaultInjector built with a network"
                )
        for spec in plan.faults:
            # ``at_time`` is absolute: applying a plan mid-run must not shift
            # activations by ``sim.now`` (past times activate immediately).
            self.sim.schedule(max(0.0, spec.at_time - self.sim.now), self._activate, spec)

    def _activate(self, spec: FaultSpec) -> None:
        replica: Process = self.replicas[spec.replica_id]
        if spec.kind == "crash":
            replica.crash()
        elif spec.kind == "slow":
            self._original_speed.setdefault(
                spec.replica_id, tuple(core.speed_factor for core in replica.cores)
            )
            for core in replica.cores:
                core.speed_factor *= spec.slow_factor
        elif spec.kind == "byzantine":
            spec.behaviour(replica)
        elif spec.kind == "partition":
            downed = self._downed_links.setdefault(spec.replica_id, set())
            for peer in spec.peers:
                self.network.set_link_down(spec.replica_id, peer)
                self.network.set_link_down(peer, spec.replica_id)
                downed.add(peer)
        elif spec.kind == "isolate":
            self.network.isolate(spec.replica_id)
        elif spec.kind == "restart":
            rejoin = getattr(replica, "rejoin", None)
            if rejoin is not None:
                rejoin()
            else:
                replica.recover()
        elif spec.kind == "heal":
            self._heal(spec.replica_id)
        else:
            raise ConfigurationError(f"fault kind {spec.kind!r} has no activation branch")
        self.applied.append(spec)

    def _heal(self, replica_id: int) -> None:
        """Undo slow/partition/isolate effects this injector put on a replica."""
        replica = self.replicas[replica_id]
        original = self._original_speed.pop(replica_id, None)
        if original is not None:
            for core, speed_factor in zip(replica.cores, original):
                core.speed_factor = speed_factor
        if self.network is not None:
            self.network.reconnect(replica_id)
            for peer in self._downed_links.pop(replica_id, ()):
                self.network.set_link_up(replica_id, peer)
                self.network.set_link_up(peer, replica_id)
