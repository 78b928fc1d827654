"""Role assignment: primary rotation and collector selection.

Section V-B: the primary of a view is chosen round-robin as a function of the
view number; the C-collectors and E-collectors of a given (view, sequence) are
a pseudo-random group of ``c + 1`` non-primary replicas chosen as a function of
the sequence number and view.  For the fallback linear-PBFT path the primary
is always included as the last collector, which guarantees progress whenever
the primary is correct.
"""

from __future__ import annotations

from typing import Tuple

from repro.crypto.hashing import sha256_int


def primary_of_view(view: int, n: int) -> int:
    """Round-robin primary for a view."""
    return view % n


def _collector_group(
    label: str, sequence: int, view: int, n: int, count: int, primary_last: bool
) -> Tuple[int, ...]:
    """Deterministic pseudo-random group of ``count`` non-primary replicas.

    The group is a function of (label, sequence, view) only, so every replica
    computes the same group locally without coordination.  With
    ``primary_last`` the primary replaces the last member.
    """
    primary = primary_of_view(view, n)
    candidates = [r for r in range(n) if r != primary]
    if not candidates:
        return (primary,)
    count = min(count, len(candidates))
    offset = sha256_int("collector-group", label, sequence, view) % len(candidates)
    group = tuple(candidates[(offset + k) % len(candidates)] for k in range(count))
    if primary_last:
        group = group[:-1] + (primary,)
    return group


def commit_collectors(
    sequence: int,
    view: int,
    n: int,
    count: int,
    include_primary_last: bool = True,
) -> Tuple[int, ...]:
    """C-collector group for a slot.

    ``count`` is ``c + 1``.  When ``include_primary_last`` is set (the
    fallback/linear path), the primary replaces the last member so that the
    (c+1)-st collector to activate is always the primary (Section V-E).
    """
    return _collector_group("c-collector", sequence, view, n, count, include_primary_last)


def execution_collectors(sequence: int, view: int, n: int, count: int) -> Tuple[int, ...]:
    """E-collector group for a slot (non-primary replicas, rotating with s)."""
    return _collector_group("e-collector", sequence, view, n, count, False)
