"""Planted stale suppressions: the allow comment suppresses nothing.

The ``allow[no-wall-clock]`` comment below sits on pure arithmetic, and the
second comment names an id that is not a lint rule at all (a typo of
``ordered-iteration``) — either way the suppression inventory has rotted and
the ``stale-suppression`` meta rule must flag it.
"""


def backoff(base: float) -> float:
    return base * 2.0  # repro: allow[no-wall-clock]  # PLANT: stale-suppression


def peers(active: frozenset) -> list:
    return sorted(active)  # repro: allow[orderd-iteration]  # PLANT: stale-suppression
