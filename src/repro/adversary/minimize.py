"""Delta-debugging minimizer for violating adversary points.

A violating :class:`~repro.experiments.harness.Point` found by the search
usually carries more adversary parameters than the bug needs.  The minimizer
shrinks them along two axes, re-running the point after every candidate edit
and keeping only edits that still reproduce:

1. **Drop** — reset each non-default parameter back to its strategy default
   (ddmin over the non-default set, largest chunks first).
2. **Shrink** — walk each surviving parameter's value leftward through its
   ``PARAM_SPACE`` candidate tuple (candidates are ordered benign-first, so
   "leftward" means "more benign").

The result is the smallest reproducing ``(strategy, params, seed)`` triple in
that order: fewest non-default parameters, then earliest candidates.  Both
passes are deterministic — no randomness, iteration in sorted parameter
order — so a minimized point is stable across runs and safe to commit to
``tests/adversary_corpus/``.  Only the attack's parameters change; every
other field of the point, its label included, stays as found.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Dict

from repro.adversary.strategies import get_strategy
from repro.experiments.harness import Point

Reproduces = Callable[[Point], bool]


def non_default_params(point: Point) -> Dict[str, Any]:
    """The attack parameters of ``point`` that differ from the strategy defaults."""
    strategy_cls = get_strategy(point.adversary.strategy)
    defaults = {name: space[0] for name, space in strategy_cls.PARAM_SPACE.items()}
    return {
        name: value
        for name, value in point.adversary.params
        if defaults.get(name, value) != value
    }


def _with_params(point: Point, params: Dict[str, Any]) -> Point:
    attack = replace(point.adversary, params=tuple(sorted(params.items())))
    return replace(point, adversary=attack)


def _ddmin_drop(point: Point, reproduces: Reproduces) -> Point:
    """Classic ddmin over the non-default parameter *set*."""
    full = non_default_params(point)
    keep = sorted(full)
    point = _with_params(point, full)  # canonicalize: defaults drop out
    chunks = 2
    while len(keep) >= 1 and chunks <= max(2, len(keep)):
        size = max(1, len(keep) // chunks)
        reduced = False
        for offset in range(0, len(keep), size):
            candidate_names = keep[:offset] + keep[offset + size :]
            candidate = _with_params(point, {name: full[name] for name in candidate_names})
            if reproduces(candidate):
                keep = candidate_names
                point = candidate
                chunks = max(2, chunks - 1)
                reduced = True
                break
        if not reduced:
            if size == 1:
                break
            chunks = min(len(keep), chunks * 2)
    return point


def _shrink_values(point: Point, reproduces: Reproduces) -> Point:
    """Move each surviving value as far toward the benign default as possible."""
    strategy_cls = get_strategy(point.adversary.strategy)
    params = dict(point.adversary.params)
    for name in sorted(params):
        space = strategy_cls.PARAM_SPACE.get(name, ())
        current = params[name]
        if current not in space:
            continue  # hand-written value outside the sampled space: keep it
        for candidate_value in space[: space.index(current)]:
            trial = dict(params)
            trial[name] = candidate_value
            candidate = _with_params(point, trial)
            if reproduces(candidate):
                params = trial
                point = candidate
                break
    return point


def minimize(point: Point, reproduces: Reproduces) -> Point:
    """Smallest reproducing variant of ``point`` under ``reproduces``.

    ``reproduces`` must be a pure predicate (typically "re-run the point
    and check the same verdict still fails").  The input point itself must
    reproduce; otherwise it is returned unchanged.
    """
    if not reproduces(point):
        return point
    while True:
        before = point.adversary.params
        point = _ddmin_drop(point, reproduces)
        point = _shrink_values(point, reproduces)
        if point.adversary.params == before:
            return point
