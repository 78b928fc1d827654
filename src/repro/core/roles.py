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


#: Bounded clear-on-limit memo for collector groups.  The group is a pure
#: function of its arguments and every replica of a cluster computes the same
#: groups for the same slots, so one hash + modulo walk serves the whole
#: deployment instead of every (replica, message) pair.
_GROUP_MEMO: dict = {}
_GROUP_MEMO_LIMIT = 1 << 16


def _collector_group(
    label: str, sequence: int, view: int, n: int, count: int, primary_last: bool
) -> Tuple[int, ...]:
    """Deterministic pseudo-random group of ``count`` non-primary replicas.

    The group is a function of (label, sequence, view) only, so every replica
    computes the same group locally without coordination.  With
    ``primary_last`` the primary replaces the last member.  The memoized
    tuple itself is returned: callers iterate and test membership, and being
    immutable it can be shared by every replica of the deployment.
    """
    key = (label, sequence, view, n, count, primary_last)
    cached = _GROUP_MEMO.get(key)
    if cached is None:
        primary = primary_of_view(view, n)
        candidates = [r for r in range(n) if r != primary]
        if not candidates:
            cached = (primary,)
        else:
            count = min(count, len(candidates))
            offset = sha256_int("collector-group", label, sequence, view) % len(candidates)
            cached = tuple(candidates[(offset + k) % len(candidates)] for k in range(count))
            if primary_last:
                cached = cached[:-1] + (primary,)
        if len(_GROUP_MEMO) >= _GROUP_MEMO_LIMIT:
            _GROUP_MEMO.clear()
        _GROUP_MEMO[key] = cached
    return cached


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
