"""Randomized strategy search: adversary episodes as sweep points.

``python -m repro.adversary.search`` samples fixed-seed episodes from the
strategy/parameter/timing space (:mod:`repro.adversary.strategies`).  Each
episode is a :class:`~repro.experiments.harness.Point` with an
:class:`~repro.experiments.harness.Attack` (:func:`episode_point`), run by
the one point runner, ``harness.run_point``, whose cluster checks agreement
on every run.  A row reports three verdicts: *safety* (no two honest
replicas executed different blocks at a sequence), *liveness* (every
request completed within the budget) and *blame* (every piece of forensics
evidence names a compromised replica).  Sampling is done serially upfront
from ``--seed``, so the point list — and therefore every row — is identical
between ``--jobs 1`` and ``--jobs N``.

Violations are shrunk by the delta-debugging minimizer
(:mod:`repro.adversary.minimize`) into the smallest reproducing
``(strategy, params, seed)`` point; ``--corpus-dir`` writes each one as a
JSON file suitable for ``tests/adversary_corpus/``, and
``--violations-json`` writes the machine-readable CI artifact.

Against the sound protocol stacks every strategy must lose, so a violation
is a bug and the default exit code says so; ``--expect-violation`` flips the
contract for planted-weakness runs (``--plant-weak-quorum``), failing
instead when the search does *not* find the planted safety hole.
"""

from __future__ import annotations

import json
import random
import sys
from typing import Any, Dict, List, Optional, Sequence

from repro.adversary.minimize import minimize, non_default_params
from repro.adversary.strategies import STRATEGIES, STRATEGY_KINDS, get_strategy
from repro.errors import ConfigurationError
from repro.experiments import harness
from repro.experiments.harness import KV, Attack, Point
from repro.protocols.cluster import ClusterResult
from repro.protocols.registry import get_protocol

DEFAULT_PROTOCOLS = ("sbft-c0", "pbft")
DEFAULT_EPISODES = 25


def eligible_strategies(protocol: str, strategies: Sequence[str]) -> List[str]:
    """The requested strategy kinds that apply to ``protocol``, catalog order."""
    kind = get_protocol(protocol).kind
    requested = {get_strategy(name).KIND for name in sorted(strategies)}
    return [
        name
        for name in STRATEGY_KINDS
        if name in requested and kind in STRATEGIES[name].PROTOCOLS
    ]


def episode_point(
    protocol: str,
    strategy: str,
    seed: int,
    params: Optional[Dict[str, Any]] = None,
    plant_weak_quorum: bool = False,
) -> Point:
    """The episode shape, from a corpus entry's fields: ``f = 1`` (n = 4 at
    c = 0, the smallest group that survives one byzantine replica) on a LAN,
    two clients × six requests, blocks of 2 (so equivocating proposals
    really conflict), short timers so view changes and client retries
    resolve inside a 60-simulated-second budget."""
    attack = Attack(strategy, tuple(sorted((params or {}).items())), plant_weak_quorum)
    planted = "+weak-quorum" if plant_weak_quorum else ""
    shown = ";".join(f"{name}={value}" for name, value in attack.params)
    return Point(
        protocol=protocol,
        f=1,
        clients=2,
        workload=KV(requests=6, batch=2),
        label=f"{protocol}/{strategy}{planted}@{seed}[{shown}]",
        topology="lan",
        block_batch=2,
        seed=seed,
        config_overrides={
            "fast_path_timeout": 0.05,
            "batch_timeout": 0.01,
            "view_change_timeout": 1.0,
            "client_retry_timeout": 1.5,
            "checkpoint_interval": 4,
        },
        max_sim_time=60.0,
        adversary=attack,
    )


def episode_fields(point: Point) -> Dict[str, Any]:
    """The corpus entry fields of ``point``: ``episode_point(**fields)``."""
    attack = point.adversary
    return {
        "protocol": point.protocol,
        "strategy": attack.strategy,
        "seed": point.seed,
        "params": dict(attack.params),
        "plant_weak_quorum": attack.plant_weak_quorum,
    }


def sample_episodes(
    episodes: int = DEFAULT_EPISODES,
    seed: int = 0,
    protocols: Sequence[str] = DEFAULT_PROTOCOLS,
    strategies: Sequence[str] = STRATEGY_KINDS,
    plant_weak_quorum: bool = False,
) -> List[Point]:
    """Sample ``episodes`` points from the strategy/parameter/timing space.

    One serial pass over one seeded RNG: the resulting point list is a pure
    function of the arguments, which is what makes ``--jobs N`` rows
    byte-identical to serial rows (workers never touch this RNG).
    """
    by_protocol = {
        protocol: eligible_strategies(protocol, strategies) for protocol in protocols
    }
    for protocol, eligible in sorted(by_protocol.items()):
        if not eligible:
            raise ConfigurationError(
                f"no requested strategy applies to protocol {protocol!r}"
            )
    rng = random.Random(seed)
    points: List[Point] = []
    for _ in range(episodes):
        protocol = protocols[rng.randrange(len(protocols))]
        eligible = by_protocol[protocol]
        strategy = eligible[rng.randrange(len(eligible))]
        space = STRATEGIES[strategy].PARAM_SPACE
        params = {}
        for name in sorted(space):
            candidates = space[name]
            params[name] = candidates[rng.randrange(len(candidates))]
        points.append(
            episode_point(
                protocol, strategy, rng.randrange(1_000_000), params, plant_weak_quorum
            )
        )
    return points


def liveness_ok(point: Point, result: ClusterResult) -> bool:
    """Every request of every client completed within the budget."""
    return result.run.completed_requests >= point.clients * point.workload.requests


def verdict(point: Point, result: ClusterResult) -> str:
    """``ok``, or the violated verdicts joined by ``+``: ``SAFETY``,
    ``LIVENESS`` and ``BLAME`` (forensics accused a replica the strategy did
    not compromise: signed evidence against an honest replica is a bug)."""
    failed = ["SAFETY"] if result.disagreements else []
    if not liveness_ok(point, result):
        failed.append("LIVENESS")
    if any(evidence.culprit not in result.compromised for evidence in result.evidence):
        failed.append("BLAME")
    return "+".join(failed) or "ok"


def episode_row(point: Point, result: ClusterResult) -> Dict:
    attack = point.adversary
    return {
        "label": point.label,
        "protocol": point.protocol,
        "strategy": attack.strategy,
        "episode_seed": point.seed,
        "params": dict(attack.params),
        "plant_weak_quorum": attack.plant_weak_quorum,
        "verdict": verdict(point, result),
        "safety_ok": not result.disagreements,
        "liveness_ok": liveness_ok(point, result),
        "completed_requests": result.run.completed_requests,
        "expected_requests": point.clients * point.workload.requests,
        "violations": [
            {"sequence": sequence, "digests": list(digests)}
            for sequence, digests in result.disagreements
        ],
        "compromised": list(result.compromised),
        "evidence_count": len(result.evidence),
    }


def _reproduces_same_verdict(row: Dict):
    """Predicate preserving the *specific* failed verdict of ``row``: its
    first (``SAFETY`` before ``LIVENESS`` before ``BLAME``)."""
    wanted = row["verdict"].split("+")[0]

    def reproduces(point: Point) -> bool:
        return wanted in verdict(point, harness.run_point(point)).split("+")

    return reproduces


def minimize_violations(points: Sequence[Point], rows: Sequence[Dict]) -> List[Dict]:
    """Shrink every violating episode; returns corpus-ready entry dicts."""
    entries: List[Dict] = []
    for point, row in zip(points, rows):
        if row["verdict"] == "ok":
            continue
        minimized = minimize(point, _reproduces_same_verdict(row))
        replay = harness.run_point(minimized)
        entries.append(
            {
                "spec": episode_fields(minimized),
                "expect": {
                    "safety_ok": not replay.disagreements,
                    "liveness_ok": liveness_ok(minimized, replay),
                },
                "found_by": episode_fields(point),
                "non_default_params": len(non_default_params(minimized)),
            }
        )
    return entries


def write_corpus(entries: Sequence[Dict], corpus_dir: str) -> List[str]:
    """Write each minimized entry as ``<protocol>-<strategy>-<seed>[-k].json``."""
    import os

    os.makedirs(corpus_dir, exist_ok=True)
    written: List[str] = []
    used: Dict[str, int] = {}
    for entry in entries:
        spec = entry["spec"]
        stem = f"{spec['protocol']}-{spec['strategy']}-{spec['seed']}"
        count = used.get(stem, 0)
        used[stem] = count + 1
        name = f"{stem}.json" if count == 0 else f"{stem}-{count}.json"
        path = os.path.join(corpus_dir, name)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(entry, handle, indent=1, sort_keys=True)
            handle.write("\n")
        written.append(path)
    return written


#: Row keys shown in the CLI table (full rows go into the JSON output).
TABLE_COLUMNS = (
    "label",
    "verdict",
    "completed_requests",
    "expected_requests",
    "evidence_count",
    "wall_seconds",
    "cpu_us_per_event",
)

#: Search rows document safety and liveness verdicts, not client-visible
#: throughput, so the schema is standalone rather than extending
#: COMMON_ROW_SCHEMA.
ROW_SCHEMA: Dict[str, str] = {
    "label": "episode point in protocol/strategy@seed[params] form",
    "protocol": "protocol variant the episode ran against",
    "strategy": "adversary strategy kind (see repro.adversary.strategies)",
    "episode_seed": "fixed seed of this episode's simulation",
    "params": "strategy parameters of this episode",
    "plant_weak_quorum": "episode ran on the planted weak-quorum config (WeakQuorumConfig)",
    "verdict": "'ok' or the violated verdicts ('SAFETY', 'LIVENESS', 'BLAME')",
    "safety_ok": "no two honest replicas executed different blocks at a sequence",
    "liveness_ok": "every correct client completed all requests in budget",
    "completed_requests": "client requests acknowledged by the cluster",
    "expected_requests": "clients x requests_per_client for the episode shape",
    "violations": "per-sequence conflicting block digests (the agreement monitor)",
    "compromised": "replica ids the agreement monitor did not judge (the strategy's)",
    "evidence_count": "signed equivocation proofs reconstructed by forensics",
    "wall_seconds": "host wall-clock cost of the episode (information, not gated)",
    "cpu_seconds": "host per-process CPU cost of the episode (not gated)",
    "sim_seconds": "simulated duration of the episode",
    "events_processed": "discrete events the simulator executed",
    "wall_us_per_event": "host wall-clock microseconds per simulated event (not gated)",
    "cpu_us_per_event": "host CPU microseconds per simulated event (not gated)",
}


def report_violations(args, points: List[Point], rows: List[Dict]) -> int:
    """Minimize and record every violation; the exit status says whether the
    search met its contract (none on a sound stack, some with
    ``--expect-violation``)."""
    violating = [row for row in rows if row["verdict"] != "ok"]
    print(f"{len(rows)} episodes, {len(violating)} violations")
    entries = minimize_violations(points, rows)
    for entry in entries:
        print(
            f"minimized: {episode_point(**entry['spec']).label} "
            f"({entry['non_default_params']} non-default params)"
        )
    if args.corpus_dir and entries:
        for path in write_corpus(entries, args.corpus_dir):
            print(f"wrote {path}")
    if args.violations_json:
        artifact = {
            "episodes": len(rows),
            "seed": args.seed,
            "plant_weak_quorum": bool(args.plant_weak_quorum),
            "violations": entries,
        }
        with open(args.violations_json, "w", encoding="utf-8") as handle:
            json.dump(artifact, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.violations_json}")
    if args.expect_violation:
        if not violating:
            print("FAIL: expected the search to find a violation, none found")
            return 1
    elif violating:
        print("FAIL: violations found against a sound configuration")
        return 1
    return 0


SWEEP = harness.Sweep(
    group="adversary-search",
    summary=__doc__.splitlines()[0],
    example="PYTHONPATH=src python -m repro.adversary.search "
    "--episodes 25 --seed 0 --violations-json violations.json",
    row_schema=ROW_SCHEMA,
    grid=sample_episodes,
    row=episode_row,
    table_columns=TABLE_COLUMNS,
    axes={
        "episodes": dict(type=int),
        "protocols": dict(nargs="+"),
        "strategies": dict(
            nargs="+",
            choices=STRATEGY_KINDS,
            metavar="KIND",
            help=f"strategy kinds to sample from (default: all of {', '.join(STRATEGY_KINDS)})",
        ),
        "plant_weak_quorum": dict(
            action="store_true",
            help="run every episode on the planted weak-quorum config; "
            "pair with --expect-violation to assert the search finds the hole",
        ),
    },
    report_flags={
        "expect_violation": dict(
            action="store_true",
            help="invert the exit-code contract: fail unless a violation is found",
        ),
        "corpus_dir": dict(
            help="write each minimized violating triple here as a JSON corpus entry"
        ),
        "violations_json": dict(
            help="write the machine-readable violations artifact here (CI upload)"
        ),
    },
    report=report_violations,
)


if __name__ == "__main__":
    sys.exit(harness.main(SWEEP))
