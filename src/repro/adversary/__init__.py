"""Everything byzantine, as data for the one point runner.

:mod:`~repro.adversary.behaviours` is what a compromised replica does
differently (the replica classes hold the honest protocol only),
:mod:`~repro.adversary.strategies` scripts whole attacks,
:mod:`~repro.adversary.search` samples them as sweep points (``python -m
repro.adversary.search``), :mod:`~repro.adversary.minimize` shrinks a
violating point and :mod:`~repro.adversary.forensics` reconstructs signed
equivocation evidence.  See ``docs/adversary.md``.
"""

from repro.adversary.strategies import STRATEGIES, STRATEGY_KINDS, Adversary

__all__ = [
    "Adversary",
    "STRATEGIES",
    "STRATEGY_KINDS",
]
