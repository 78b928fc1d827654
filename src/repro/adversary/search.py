"""Randomized strategy search over the adversary lab's episode space.

``python -m repro.adversary.search`` samples fixed-seed episodes from the
strategy/parameter/timing space (:mod:`repro.adversary.strategies`), runs
each one through the safety and liveness oracles
(:mod:`repro.adversary.lab`) and reports every violation.  Sampling is done
serially upfront from ``--seed``, so the episode list — and therefore every
row — is identical between ``--jobs 1`` and ``--jobs N``.

Violations are shrunk by the delta-debugging minimizer
(:mod:`repro.adversary.minimize`) into the smallest reproducing
``(strategy, params, seed)`` triple; ``--corpus-dir`` writes each minimized
triple as a JSON file suitable for ``tests/adversary_corpus/``, and
``--violations-json`` writes the machine-readable CI artifact.

Against the sound protocol stacks every strategy must lose, so a violation
is a bug and the default exit code says so; ``--expect-violation`` flips the
contract for planted-weakness runs (``--plant-weak-quorum``), failing
instead when the search does *not* find the planted safety hole.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.adversary.lab import EpisodeSpec, run_episode
from repro.adversary.minimize import minimize, non_default_params
from repro.adversary.strategies import STRATEGIES, STRATEGY_KINDS
from repro.errors import ConfigurationError
from repro.experiments.harness import (
    add_baseline_arguments,
    add_rounds_argument,
    emit_and_gate,
    format_table,
    harness_cost_fields,
    make_epilog,
    run_points,
    timed_rounds,
)
from repro.protocols.registry import get_protocol

DEFAULT_PROTOCOLS = ("sbft-c0", "pbft")
DEFAULT_EPISODES = 25


def eligible_strategies(protocol: str, strategies: Sequence[str]) -> List[str]:
    """The requested strategy kinds that apply to ``protocol``, catalog order."""
    kind = get_protocol(protocol).kind
    requested = set(strategies)
    for name in sorted(requested):
        if name not in STRATEGIES:
            raise ConfigurationError(
                f"unknown adversary strategy {name!r} (known: {', '.join(STRATEGY_KINDS)})"
            )
    return [
        name
        for name in STRATEGY_KINDS
        if name in requested and kind in STRATEGIES[name].PROTOCOLS
    ]


def sample_episodes(
    episodes: int,
    seed: int,
    protocols: Sequence[str] = DEFAULT_PROTOCOLS,
    strategies: Sequence[str] = STRATEGY_KINDS,
    plant_weak_quorum: bool = False,
) -> List[EpisodeSpec]:
    """Sample ``episodes`` specs from the strategy/parameter/timing space.

    One serial pass over one seeded RNG: the resulting spec list is a pure
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
    specs: List[EpisodeSpec] = []
    for _ in range(episodes):
        protocol = protocols[rng.randrange(len(protocols))]
        eligible = by_protocol[protocol]
        strategy = eligible[rng.randrange(len(eligible))]
        space = STRATEGIES[strategy].PARAM_SPACE
        params = {}
        for name in sorted(space):
            candidates = space[name]
            params[name] = candidates[rng.randrange(len(candidates))]
        specs.append(
            EpisodeSpec(
                protocol=protocol,
                strategy=strategy,
                seed=rng.randrange(1_000_000),
                params=tuple(sorted(params.items())),
                plant_weak_quorum=plant_weak_quorum,
            )
        )
    return specs


def _sweep_point_worker(spec: Tuple) -> Dict:
    """Run one episode point; module-level so it pickles for
    :func:`repro.experiments.harness.run_points` worker processes.

    Forensics always runs: evidence reconstruction is part of what the
    search exercises, and ``evidence_count`` is a row-level signal.
    """
    episode_spec, rounds = spec
    wall, cpu, report = timed_rounds(
        lambda: run_episode(episode_spec, forensics=True),
        rounds,
    )
    row: Dict[str, Any] = {}
    row.update(
        {
            "label": episode_spec.describe(),
            "protocol": episode_spec.protocol,
            "strategy": episode_spec.strategy,
            "episode_seed": episode_spec.seed,
            "params": dict(episode_spec.params),
            "plant_weak_quorum": episode_spec.plant_weak_quorum,
            "verdict": report.verdict(),
            "safety_ok": report.safety_ok,
            "liveness_ok": report.liveness_ok,
            "completed_requests": report.completed,
            "expected_requests": report.expected,
            "violations": [
                {"sequence": sequence, "digests": list(digests)}
                for sequence, digests in report.violations
            ],
            "compromised": list(report.compromised),
            "evidence_count": report.evidence_count,
        }
    )
    row.update(harness_cost_fields(wall, cpu, report))
    return row


def run_search(
    episodes: int = DEFAULT_EPISODES,
    seed: int = 0,
    protocols: Sequence[str] = DEFAULT_PROTOCOLS,
    strategies: Sequence[str] = STRATEGY_KINDS,
    plant_weak_quorum: bool = False,
    rounds: int = 1,
    jobs: int = 1,
) -> Tuple[List[EpisodeSpec], List[Dict]]:
    """Sample and run the episode grid; returns ``(specs, rows)`` in order."""
    specs = sample_episodes(
        episodes,
        seed,
        protocols=protocols,
        strategies=strategies,
        plant_weak_quorum=plant_weak_quorum,
    )
    rows = run_points(_sweep_point_worker, [(spec, rounds) for spec in specs], jobs=jobs)
    return specs, rows


def _reproduces_same_verdict(row: Dict):
    """Predicate preserving the *specific* oracle failure of ``row``."""
    want_safety_broken = not row["safety_ok"]

    def reproduces(spec: EpisodeSpec) -> bool:
        report = run_episode(spec)
        if want_safety_broken:
            return not report.safety_ok
        return not report.liveness_ok

    return reproduces


def minimize_violations(
    specs: Sequence[EpisodeSpec], rows: Sequence[Dict]
) -> List[Dict]:
    """Shrink every violating episode; returns corpus-ready entry dicts."""
    entries: List[Dict] = []
    for spec, row in zip(specs, rows):
        if row["verdict"] == "ok":
            continue
        minimized = minimize(spec, _reproduces_same_verdict(row))
        replay = run_episode(minimized)
        entries.append(
            {
                "spec": minimized.as_dict(),
                "expect": {
                    "safety_ok": replay.safety_ok,
                    "liveness_ok": replay.liveness_ok,
                },
                "found_by": spec.as_dict(),
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

#: Search rows document oracle verdicts, not client-visible throughput, so
#: the schema is standalone rather than extending COMMON_ROW_SCHEMA.
ROW_SCHEMA: Dict[str, str] = {
    "label": "episode spec in protocol/strategy@seed[params] form",
    "protocol": "protocol variant the episode ran against",
    "strategy": "adversary strategy kind (see repro.adversary.strategies)",
    "episode_seed": "fixed seed of this episode's simulation",
    "params": "strategy parameters of this episode",
    "plant_weak_quorum": "episode ran with the planted unsafe quorum override",
    "verdict": "'ok' or the violated oracles ('SAFETY', 'LIVENESS', ...)",
    "safety_ok": "no two honest replicas executed different blocks at a sequence",
    "liveness_ok": "every correct client completed all requests in budget",
    "completed_requests": "client requests acknowledged by the cluster",
    "expected_requests": "clients x requests_per_client for the episode shape",
    "violations": "per-sequence conflicting block digests (safety oracle)",
    "compromised": "replica ids the strategy compromised",
    "evidence_count": "signed equivocation proofs reconstructed by forensics",
    "wall_seconds": "harness wall-clock cost of the episode (min over --rounds)",
    "cpu_seconds": "harness per-process CPU cost of the episode",
    "sim_seconds": "simulated duration of the episode",
    "events_processed": "discrete events the simulator executed",
    "wall_us_per_event": "wall-clock microseconds per simulated event",
    "cpu_us_per_event": "CPU microseconds per simulated event (the CI gate metric)",
}

EPILOG = make_epilog(
    "PYTHONPATH=src python -m repro.adversary.search "
    "--episodes 25 --seed 0 --violations-json violations.json",
    ROW_SCHEMA,
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog=EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--episodes", type=int, default=DEFAULT_EPISODES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--protocols", nargs="+", default=list(DEFAULT_PROTOCOLS))
    parser.add_argument(
        "--strategies",
        nargs="+",
        default=list(STRATEGY_KINDS),
        choices=STRATEGY_KINDS,
        metavar="KIND",
        help=f"strategy kinds to sample from (default: all of {', '.join(STRATEGY_KINDS)})",
    )
    parser.add_argument(
        "--plant-weak-quorum",
        action="store_true",
        help="run every episode with the test-only unsafe quorum override; "
        "pair with --expect-violation to assert the search finds the hole",
    )
    parser.add_argument(
        "--expect-violation",
        action="store_true",
        help="invert the exit-code contract: fail unless a violation is found",
    )
    parser.add_argument(
        "--corpus-dir",
        default=None,
        help="write each minimized violating triple here as a JSON corpus entry",
    )
    parser.add_argument(
        "--violations-json",
        default=None,
        help="write the machine-readable violations artifact here (CI upload)",
    )
    add_rounds_argument(parser)
    add_baseline_arguments(parser)
    args = parser.parse_args(argv)

    try:
        specs, rows = run_search(
            episodes=args.episodes,
            seed=args.seed,
            protocols=args.protocols,
            strategies=args.strategies,
            plant_weak_quorum=args.plant_weak_quorum,
            rounds=args.rounds,
            jobs=args.jobs,
        )
    except ConfigurationError as error:
        parser.error(str(error))
    print(format_table(rows, columns=TABLE_COLUMNS))

    violating = [row for row in rows if row["verdict"] != "ok"]
    print(f"{len(rows)} episodes, {len(violating)} violations")
    entries = minimize_violations(specs, rows)
    for entry in entries:
        print(
            f"minimized: {EpisodeSpec.from_dict(entry['spec']).describe()} "
            f"({entry['non_default_params']} non-default params)"
        )
    if args.corpus_dir and entries:
        for path in write_corpus(entries, args.corpus_dir):
            print(f"wrote {path}")
    if args.violations_json:
        artifact = {
            "episodes": len(rows),
            "seed": args.seed,
            "plant_weak_quorum": args.plant_weak_quorum,
            "violations": entries,
        }
        with open(args.violations_json, "w", encoding="utf-8") as handle:
            json.dump(artifact, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.violations_json}")

    gate = emit_and_gate(rows, group="adversary-search", scale_name="episodes", args=args)
    if args.expect_violation:
        if not violating:
            print("FAIL: expected the search to find a violation, none found")
            return 1
    elif violating:
        print("FAIL: violations found against a sound configuration")
        return 1
    return gate


if __name__ == "__main__":
    sys.exit(main())
