"""Adversary strategy lab: scripted byzantine strategies, seeded protocol
fuzzing and equivocation forensics.

The lab turns the simulator's fixed-seed byte-identity into a correctness
tool: :mod:`repro.adversary.behaviours` is what a compromised replica does
differently (the replica classes hold the honest protocol only),
:mod:`repro.adversary.strategies` defines pluggable
:class:`~repro.adversary.strategies.Adversary` behaviours (equivocating
primary, selective delay/silence toward commit collectors, view-change spam,
stale-checkpoint lies, ...), :mod:`repro.adversary.lab` runs one strategy
against a freshly built cluster as a fixed-seed *episode* and checks the
safety and liveness oracles, :mod:`repro.adversary.search` samples the
strategy/parameter/timing space from a seed (``python -m
repro.adversary.search``), :mod:`repro.adversary.minimize` shrinks any
violation to a smallest reproducing ``(strategy, params, seed)`` triple, and
:mod:`repro.adversary.forensics` reconstructs cryptographic equivocation
evidence from a signed-message log.  See ``docs/adversary.md``.
"""

from repro.adversary.lab import EpisodeReport, EpisodeSpec, run_episode
from repro.adversary.strategies import STRATEGIES, STRATEGY_KINDS, Adversary

__all__ = [
    "Adversary",
    "EpisodeReport",
    "EpisodeSpec",
    "STRATEGIES",
    "STRATEGY_KINDS",
    "run_episode",
]
