"""Per-client executed-request tracking and reply caching (both replica stacks).

Clients may pipeline up to ``client_max_outstanding`` (= ``keep``) requests as
a *sliding window*: the client never issues timestamp ``W + keep`` while its
oldest in-flight request ``W`` is uncompleted (enforced in
:class:`repro.core.client.SBFTClient`).  That discipline is what makes a
bounded reply cache sufficient:

* any retransmittable (in-flight) timestamp ``X`` satisfies ``X >= W``, and
* at most ``keep - 1`` timestamps above ``X`` can have executed (all executed
  timestamps are ``<= W + keep - 1``),

so ``X`` is always among the ``keep`` highest executed timestamps of its
client — exactly what the cache retains (eviction is by smallest timestamp,
never insertion order: gap-filling retries execute out of timestamp order).

Executed-request tracking is *exact* per timestamp (contiguous prefix + gap
set): a pipelined client's ``ts=5`` can be lost while its ``ts=6`` executes,
and a plain high-water mark would then swallow the ``ts=5`` retransmission as
"already executed", fabricating its completion.

A replica that knows a timestamp executed but holds no cached values must
stay silent (:meth:`reply` returns ``None``): fabricating an empty-value
reply could combine with other fabricated replies into an ``f+1`` quorum of
wrong values at the client.  State transfer ships the donor's cache
(:meth:`cache_snapshot` / :meth:`adopt_cache`) so re-synced replicas answer
retransmissions with real values.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Set, Tuple

#: One cached reply: (sequence the request executed in, result values).
ReplyEntry = Tuple[int, Tuple[Any, ...]]


class ClientReplyTracker:
    """Bounded per-client reply cache with exact executed-timestamp tracking."""

    __slots__ = ("keep", "_prefix", "_gaps", "_cache")

    def __init__(self, keep: int):
        self.keep = max(1, keep)
        # client -> contiguous executed prefix (all ts <= prefix executed).
        self._prefix: Dict[int, int] = {}
        # client -> executed timestamps above the prefix (holes pending);
        # a client with no hole pending has no entry.
        self._gaps: Dict[int, Set[int]] = {}
        # client -> {timestamp: (sequence, values)}, the `keep` highest.
        self._cache: Dict[int, Dict[int, ReplyEntry]] = {}

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def executed(self, client_id: int, timestamp: int) -> bool:
        """Whether this exact (client, timestamp) request has executed."""
        if timestamp <= self._prefix.get(client_id, 0):
            return True
        gaps = self._gaps.get(client_id)
        return gaps is not None and timestamp in gaps

    def reply(self, client_id: int, timestamp: int) -> Optional[ReplyEntry]:
        """The cached reply for a retransmission, or ``None`` (stay silent)."""
        return self._cache.get(client_id, {}).get(timestamp)

    def prefixes(self) -> Dict[int, int]:
        """Per-client contiguous executed prefix (state-transfer payload)."""
        return dict(self._prefix)

    def cache_snapshot(self) -> Dict[int, Dict[int, ReplyEntry]]:
        """Copy of the reply cache (state-transfer payload)."""
        return {client: dict(cache) for client, cache in self._cache.items()}

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def mark_executed(self, client_id: int, timestamp: int) -> None:
        """Record that (client, timestamp) executed (prefix + gap bookkeeping)."""
        prefix = self._prefix.get(client_id, 0)
        if timestamp <= prefix:
            return
        gaps = self._gaps.get(client_id)
        if gaps is None:
            if timestamp == prefix + 1:  # in order: only the prefix moves
                self._prefix[client_id] = timestamp
                return
            gaps = self._gaps[client_id] = set()
        gaps.add(timestamp)
        while prefix + 1 in gaps:
            prefix += 1
            gaps.remove(prefix)
        if not gaps:
            del self._gaps[client_id]
        self._prefix[client_id] = prefix

    def record(self, client_id: int, timestamp: int, sequence: int, values: Tuple[Any, ...]) -> None:
        """Record an executed request's reply, evicting the lowest timestamp."""
        self.mark_executed(client_id, timestamp)
        cache = self._cache.setdefault(client_id, {})
        cache[timestamp] = (sequence, values)
        while len(cache) > self.keep:
            del cache[min(cache)]

    def record_block(
        self, sequence: int, requests: Sequence[Any], reply_values: Sequence[Tuple[Any, ...]]
    ) -> None:
        """Record the replies of every request of executed block ``sequence``:
        :meth:`record` per request, with the common in-order step (the next
        timestamp of a client with no gap pending) done inline."""
        prefixes, gaps, caches, keep = self._prefix, self._gaps, self._cache, self.keep
        for request, values in zip(requests, reply_values):
            client_id, timestamp = request.client_id, request.timestamp
            if client_id not in gaps and timestamp == prefixes.get(client_id, 0) + 1:
                prefixes[client_id] = timestamp
            else:
                self.mark_executed(client_id, timestamp)
            cache = caches.setdefault(client_id, {})
            cache[timestamp] = (sequence, values)
            while len(cache) > keep:
                del cache[min(cache)]

    def adopt_prefixes(self, prefixes: Optional[Dict[int, int]]) -> None:
        """Adopt a state-transfer donor's executed prefixes (safe: every
        timestamp up to a prefix executed; gap entries below it are subsumed)."""
        if not prefixes:
            return
        for client, timestamp in prefixes.items():
            if self._prefix.get(client, 0) < timestamp:
                self._prefix[client] = timestamp
            gaps = self._gaps.get(client)
            if gaps:
                gaps.difference_update({t for t in gaps if t <= timestamp})
                if not gaps:
                    del self._gaps[client]

    def adopt_cache(self, donor: Optional[Dict[int, Dict[int, ReplyEntry]]]) -> None:
        """Merge a state-transfer donor's reply cache into ours.

        The donor's cached replies let this replica answer retransmissions of
        requests it never executed locally with their real values.  The merge
        keeps the ``keep`` highest timestamps per client.
        """
        if not donor:
            return
        for client, entries in donor.items():
            if not entries:
                continue
            for timestamp in entries:
                self.mark_executed(client, timestamp)
            cache = self._cache.setdefault(client, {})
            cache.update(entries)
            self._cache[client] = dict(sorted(cache.items())[-self.keep:])
