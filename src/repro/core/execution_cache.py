"""Run once, apply everywhere: the replay entry rides on the block.

"EVM bytecode is deterministic [so] the new state digest will be equal in all
non-faulty replicas" (Section IX) — and the same holds for every deterministic
service in this simulator: the n replicas of a cluster all apply the
*identical* committed block over the *identical* pre-state and produce the
identical results.  Running it n times is pure waste in a simulation where
all replicas share one process.

Every replica is handed the same :class:`BlockOperations` instance (the plan
of the shared ``PrePrepare``), so the entry is a stash on that instance, next
to ``digests``.  One recorder, one key, one apply, for both services
(``AuthenticatedKVStore._entry``, which the ledger inherits): the first
replica to *start* the block — ``Replica._try_execute`` prices it — dry-runs
it and writes ``(state key, entry)``; a replica whose own state key equals the
recorded one prices the block off the entry; every replica applies the entry
it priced from when the block finishes.  Anyone else — a replica restored by
state transfer, a store written out of band, a caller passing a plain list —
dry-runs the block for itself and leaves the stash alone.  The state key is
made *entirely of digests*::

    (state fingerprint, chain digest, sequence)

(the chain digest also fixes the ledger's block number, one per journaled
block), and which operations the entry belongs to is implied by the instance
it sits on.  Every replica that applies the block counts the apply on the
instance (:func:`applied`, from ``Replica._finish_execution``), the recorder
and a replica that ran the block itself included; the n-th apply frees the
entry, since no replica will price or apply it again.  A replica that never
applies it (crashed, or moved past it by state transfer) leaves the entry to
be freed with the log slot that holds the ``PrePrepare``; a block re-proposed
in a new view is a new instance and runs once more.

Applying must be decision-for-decision identical to running: same results,
same journal entries, same proofs, same chain digests, and the *simulated*
execution price untouched (every replica still charges the same simulated
CPU; only host wall-clock is saved).  ``tests/test_execution_cache.py`` and
``tests/test_kv_execution_cache.py`` pin that on fixed-seed clusters.  The
hit/miss counters are the only state here; ``Cluster._build`` zeroes them,
and in a healthy n-replica run every block shows 1 miss and n-1 hits.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.services.interface import BlockOperations

_STATS = {"hits": 0, "misses": 0}


def clear() -> None:
    """Zero the hit/miss counters."""
    _STATS["hits"] = 0
    _STATS["misses"] = 0


def stats() -> Dict[str, int]:
    return dict(_STATS)


def lookup(operations: Sequence, state_key: Tuple) -> Optional[Tuple]:
    """The replay entry on ``operations`` if it was recorded from exactly
    ``state_key``, counting the hit or miss."""
    replay = operations.replay if type(operations) is BlockOperations else None
    if replay is not None and replay[0] == state_key:
        _STATS["hits"] += 1
        return replay[1]
    _STATS["misses"] += 1
    return None


def store(operations: Sequence, state_key: Tuple, entry: Tuple) -> None:
    """Record the replay entry the first replica to start the block produced."""
    if type(operations) is BlockOperations and operations.replay is None:
        operations.replay = (state_key, entry)


def applied(operations: Sequence, n: int) -> None:
    """Count one replica's apply of ``operations``; the ``n``-th frees the
    replay entry."""
    if type(operations) is BlockOperations:
        applies = operations.applies = operations.applies + 1
        if applies >= n:
            operations.replay = None
