"""Runtime determinism sanitizer — the race detector for the simulator.

The reproduction's core promise is that a run is a pure function of its seed:
fixed seeds must replay byte-identically through every refactor of the hot
path (dispatch tables, heap compaction, ``broadcast_bulk`` RNG ordering,
memoization).  This module turns that promise into a checkable artifact.

When enabled (``Cluster.run(sanitize=True)``), the sanitizer

* swaps the simulator's and network's ``random.Random`` instances for
  draw-counting clones (state-preserving, so the run itself is unchanged),
* hooks the event loop (``Simulator._trace``) to record, for every executed
  event, ``(time, seq, handler, detail, rng draws since the previous
  event)``, and
* folds each record into a rolling SHA-256 *decision-hash chain*.

Two runs of the same seed must produce the same chain; any divergence —
reordered events, a different draw count, a new handler — changes every
subsequent link.  The ``selfcheck`` CLI runs a fixed-seed point of each sweep
twice and, on mismatch, bisects to the first divergent event and prints both
traces with context::

    PYTHONPATH=src python -m repro.analysis.sanitizer selfcheck --all
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments import client_sweep, fault_sweep
from repro.experiments.harness import KV, Ethereum, Point, run_point
from repro.protocols.cluster import ClusterResult
from repro.sim.faults import FaultPlan

TraceRecord = Tuple[float, int, str, str, int]

_CHAIN_SEED = b"repro-determinism-sanitizer-v1"


class CountingRandom(random.Random):
    """A ``random.Random`` that counts primitive draws.

    Every derived method (``uniform``, ``randrange``, ``shuffle``, ...)
    bottoms out in ``random()`` or ``getrandbits()``, so counting those two
    captures all consumption.  ``setstate``/``getstate`` pass through, which
    lets the sanitizer substitute a counting clone mid-stream without
    perturbing the sequence.
    """

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.draws = 0

    def random(self) -> float:
        self.draws += 1
        return super().random()

    def getrandbits(self, k: int) -> int:
        self.draws += 1
        return super().getrandbits(k)


def _counting_clone(rng: random.Random) -> CountingRandom:
    clone = CountingRandom()
    clone.setstate(rng.getstate())
    return clone


def _handler_name(callback: Callable) -> str:
    name = getattr(callback, "__qualname__", "")
    if name:
        return name
    return type(callback).__name__


def _event_detail(args: tuple) -> str:
    """A stable payload descriptor: the message type for delivery events."""
    for arg in args:
        msg_type = getattr(arg, "msg_type", None)
        if isinstance(msg_type, str):
            return msg_type
    return ""


class DeterminismSanitizer:
    """Builds a decision-hash chain over every event a simulator executes.

    Attach at construction time, before any event runs::

        sim = Simulator(seed=0)
        sanitizer = DeterminismSanitizer(sim)
        ...  # build network/replicas/clients, then sim.run(...)
        print(sanitizer.chain_hash, sanitizer.events_hashed)

    Components that own additional RNGs (the :class:`~repro.sim.network.
    Network` derives one from the simulator's) must be registered with
    :meth:`track_rng` so their draws are counted.
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        self.records: List[TraceRecord] = []
        self.events_hashed = 0
        self._digest = hashlib.sha256(_CHAIN_SEED).digest()
        self._rngs: List[CountingRandom] = []
        self._last_total = 0
        self.track_rng(sim)
        sim._trace = self._observe

    def track_rng(self, owner, attr: str = "rng") -> CountingRandom:
        """Swap ``owner.<attr>`` for a draw-counting, state-identical clone."""
        rng = getattr(owner, attr)
        if not isinstance(rng, CountingRandom):
            rng = _counting_clone(rng)
            setattr(owner, attr, rng)
        self._rngs.append(rng)
        return rng

    def total_draws(self) -> int:
        return sum(rng.draws for rng in self._rngs)

    def _observe(self, time: float, seq: int, callback: Callable, args: tuple) -> None:
        total = self.total_draws()
        record: TraceRecord = (
            time,
            seq,
            _handler_name(callback),
            _event_detail(args),
            total - self._last_total,
        )
        self._last_total = total
        self.records.append(record)
        self.events_hashed += 1
        self._digest = hashlib.sha256(self._digest + repr(record).encode("utf-8")).digest()

    @property
    def chain_hash(self) -> str:
        """Hex digest of the rolling decision-hash chain so far."""
        return self._digest.hex()


# --------------------------------------------------------------------------
# Divergence analysis
# --------------------------------------------------------------------------


def first_divergence(a: Sequence[TraceRecord], b: Sequence[TraceRecord]) -> Optional[int]:
    """Index of the first differing record, or None if the traces agree.

    A pure length difference (one trace is a prefix of the other) diverges at
    the length of the shorter trace.
    """
    for index, (left, right) in enumerate(zip(a, b)):
        if left != right:
            return index
    if len(a) != len(b):
        return min(len(a), len(b))
    return None


def format_record(record: TraceRecord) -> str:
    time, seq, handler, detail, draws = record
    payload = f" [{detail}]" if detail else ""
    return f"t={time:.9f} seq={seq} {handler}{payload} draws={draws}"


def format_divergence(
    a: Sequence[TraceRecord],
    b: Sequence[TraceRecord],
    index: int,
    context: int = 3,
) -> str:
    """Render both traces around the first divergent event."""
    lines = [f"first divergent event at index {index}:"]
    start = max(0, index - context)
    stop = index + context + 1
    for label, trace in (("run A", a), ("run B", b)):
        lines.append(f"--- {label} ---")
        if start > 0:
            lines.append(f"  ... {start} earlier event(s) agree ...")
        for position in range(start, min(stop, len(trace))):
            marker = ">>" if position == index else "  "
            lines.append(f"{marker} [{position}] {format_record(trace[position])}")
        if index >= len(trace):
            lines.append(f">> [{index}] <trace ended after {len(trace)} event(s)>")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Selfcheck scenarios: one small fixed-seed point per sweep, as harness.Points
# --------------------------------------------------------------------------


@dataclasses.dataclass
class SelfCheckResult:
    scenario: str
    ok: bool
    hash_a: str
    hash_b: str
    events: int
    divergence_index: Optional[int] = None
    report: str = ""


#: One small fixed-seed point per sweep, each starting from a cold execution
#: cache; :func:`selfcheck` runs one at the seed it is given.
SCENARIOS: Dict[str, Point] = {
    "scale": Point(
        protocol="sbft-c0",
        f=1,
        clients=2,
        workload=KV(requests=4, batch=2),
        label="sanitize/scale",
        block_batch=2,
        max_sim_time=120.0,
    ),
    "contracts": Point(
        protocol="pbft",
        f=1,
        clients=2,
        workload=Ethereum(transactions=60),
        label="sanitize/contracts",
        block_batch=2,
        max_sim_time=240.0,
    ),
    "fault": Point(
        protocol="sbft-c0",
        f=1,
        clients=4,
        workload=KV(requests=16, batch=2),
        label="sanitize/fault",
        block_batch=4,
        fault_plan=FaultPlan.crash_backups(1, 4, at_time=1.0),
        config_overrides=fault_sweep.CONFIG_OVERRIDES,
        max_sim_time=120.0,
        timeline_bucket=fault_sweep.TIMELINE_BUCKET,
        fault_phase=(1.0, 2.0),
    ),
    "client": Point(
        protocol="sbft-c0",
        f=1,
        clients=4,
        workload=KV(requests=4, batch=2),
        label="sanitize/client",
        block_batch=4,
        config_overrides=dict(
            client_sweep.CONFIG_OVERRIDES, batch_policy="adaptive", client_max_outstanding=2
        ),
        max_sim_time=120.0,
    ),
}


def run_scenario(scenario: str, seed: int = 0) -> ClusterResult:
    """One sanitized run of ``scenario`` at ``seed``."""
    return run_point(dataclasses.replace(SCENARIOS[scenario], seed=seed), sanitize=True)


def selfcheck(scenario: str, seed: int = 0) -> SelfCheckResult:
    """Run ``scenario`` twice with the same seed and compare hash chains."""
    first = run_scenario(scenario, seed)
    second = run_scenario(scenario, seed)
    trace_a = first.decision_trace or []
    trace_b = second.decision_trace or []
    ok = first.decision_hash == second.decision_hash and trace_a == trace_b
    result = SelfCheckResult(
        scenario=scenario,
        ok=ok,
        hash_a=first.decision_hash or "",
        hash_b=second.decision_hash or "",
        events=len(trace_a),
    )
    if not ok:
        index = first_divergence(trace_a, trace_b)
        if index is None:
            # Hashes differ but records agree: only reachable if hashing is
            # broken, which is itself worth a loud report.
            result.report = "hash chains differ but traces compare equal"
        else:
            result.divergence_index = index
            result.report = format_divergence(trace_a, trace_b, index)
    return result


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.sanitizer",
        description="Determinism sanitizer selfcheck for the SBFT reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    check = sub.add_parser(
        "selfcheck",
        help="run fixed-seed sweep points twice and compare decision-hash chains",
    )
    check.add_argument(
        "--sweep",
        action="append",
        choices=sorted(SCENARIOS),
        help="scenario to check (repeatable; default: all)",
    )
    check.add_argument("--all", action="store_true", help="check every scenario")
    check.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    names = sorted(SCENARIOS) if (args.all or not args.sweep) else args.sweep
    failures = 0
    for name in names:
        result = selfcheck(name, seed=args.seed)
        status = "OK" if result.ok else "DIVERGENCE"
        # The full chain hash: "same decision chain as another commit" is a
        # copy-paste comparison of these lines.
        print(f"{name}: {status} hash={result.hash_a} events={result.events}")
        if not result.ok:
            failures += 1
            print(f"  second run hash={result.hash_b}")
            for line in result.report.splitlines():
                print(f"  {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
