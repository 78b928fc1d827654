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

import json
import random
import sys
from typing import Dict, List, Sequence

from repro.adversary.lab import EpisodeReport, EpisodeSpec, run_episode
from repro.adversary.minimize import minimize, non_default_params
from repro.adversary.strategies import STRATEGIES, STRATEGY_KINDS
from repro.errors import ConfigurationError
from repro.experiments import harness
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
    episodes: int = DEFAULT_EPISODES,
    seed: int = 0,
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


def run_search_episode(spec: EpisodeSpec) -> EpisodeReport:
    """Forensics always runs: evidence reconstruction is part of what the
    search exercises, and ``evidence_count`` is a row-level signal."""
    return run_episode(spec, forensics=True)


def episode_row(spec: EpisodeSpec, report: EpisodeReport) -> Dict:
    return {
        "label": spec.describe(),
        "protocol": spec.protocol,
        "strategy": spec.strategy,
        "episode_seed": spec.seed,
        "params": dict(spec.params),
        "plant_weak_quorum": spec.plant_weak_quorum,
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
    "plant_weak_quorum": "episode ran on the planted weak-quorum config (WeakQuorumConfig)",
    "verdict": "'ok' or the violated oracles ('SAFETY', 'LIVENESS', ...)",
    "safety_ok": "no two honest replicas executed different blocks at a sequence",
    "liveness_ok": "every correct client completed all requests in budget",
    "completed_requests": "client requests acknowledged by the cluster",
    "expected_requests": "clients x requests_per_client for the episode shape",
    "violations": "per-sequence conflicting block digests (safety oracle)",
    "compromised": "replica ids the strategy compromised",
    "evidence_count": "signed equivocation proofs reconstructed by forensics",
    "wall_seconds": "host wall-clock cost of the episode (information, not gated)",
    "cpu_seconds": "host per-process CPU cost of the episode (not gated)",
    "sim_seconds": "simulated duration of the episode",
    "events_processed": "discrete events the simulator executed",
    "wall_us_per_event": "host wall-clock microseconds per simulated event (not gated)",
    "cpu_us_per_event": "host CPU microseconds per simulated event (not gated)",
}


def report_violations(args, specs: List[EpisodeSpec], rows: List[Dict]) -> int:
    """Minimize and record every violation; the exit status says whether the
    search met its contract (none on a sound stack, some with
    ``--expect-violation``)."""
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
    run_point=run_search_episode,
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
