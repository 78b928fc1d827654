"""Property-based test for ``ClientReplyTracker`` (``repro.core.reply_cache``).

The tracker implements exact executed-timestamp tracking as a contiguous
prefix plus a gap set, and a bounded reply cache with lowest-timestamp
eviction.  Both are equivalent to a trivially correct *unbounded* model:

* ``executed(c, ts)``  == ``ts`` is in the model's executed set, and the
  contiguous prefix is the largest ``p`` with ``1..p`` all executed;
* ``reply(c, ts)``     == the recorded entry iff ``ts`` is among the
  ``keep`` highest recorded timestamps of that client, else ``None``.

The test drives random interleavings of execute / retransmit-query / adopt
(state transfer) operations from pinned seeds and checks the equivalence
after every step, so any divergence pins down the exact operation sequence.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import make_request
from repro.core.messages import ClientRequest
from repro.core.reply_cache import ClientReplyTracker

CLIENTS = (0, 1, 2)
MAX_TS = 30  # small timestamp range: collisions, gaps and evictions are common


class UnboundedModel:
    """The naive spec: remember everything, derive answers at query time."""

    def __init__(self, keep: int):
        self.keep = max(1, keep)
        self.executed = {client: set() for client in CLIENTS}
        self.recorded = {client: {} for client in CLIENTS}

    def mark_executed(self, client: int, timestamp: int) -> None:
        self.executed[client].add(timestamp)

    def record(self, client: int, timestamp: int, sequence: int, values) -> None:
        self.mark_executed(client, timestamp)
        self.recorded[client][timestamp] = (sequence, values)

    def adopt_prefixes(self, prefixes) -> None:
        for client, prefix in prefixes.items():
            self.executed[client] |= set(range(1, prefix + 1))

    def adopt_cache(self, donor) -> None:
        for client, entries in donor.items():
            for timestamp, entry in entries.items():
                # Donor entries win on conflict, as in the tracker's merge.
                self.record(client, timestamp, *entry)

    def is_executed(self, client: int, timestamp: int) -> bool:
        return timestamp in self.executed[client]

    def prefix(self, client: int) -> int:
        prefix = 0
        while prefix + 1 in self.executed[client]:
            prefix += 1
        return prefix

    def reply(self, client: int, timestamp: int):
        entries = self.recorded[client]
        top = sorted(entries)[-self.keep :]
        return entries[timestamp] if timestamp in top else None


def assert_equivalent(tracker: ClientReplyTracker, model: UnboundedModel) -> None:
    for client in CLIENTS:
        # Client timestamps start at 1 (ts <= 0 is vacuously "executed"
        # under the prefix encoding and never names a real request).
        for timestamp in range(1, MAX_TS + 2):
            assert tracker.executed(client, timestamp) == model.is_executed(
                client, timestamp
            ), (client, timestamp)
            assert tracker.reply(client, timestamp) == model.reply(client, timestamp), (
                client,
                timestamp,
            )
        assert tracker.prefixes().get(client, 0) == model.prefix(client), client


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("keep", [1, 2, 5])
def test_random_interleavings_match_unbounded_model(seed, keep):
    rng = random.Random(seed)
    tracker = ClientReplyTracker(keep)
    model = UnboundedModel(keep)
    sequence = 0
    for step in range(300):
        client = rng.choice(CLIENTS)
        timestamp = rng.randint(1, MAX_TS)
        op = rng.randrange(4)
        if op == 0:
            # Execute with a cached reply (the common path).
            sequence += 1
            values = (client, timestamp, sequence)
            tracker.record(client, timestamp, sequence, values)
            model.record(client, timestamp, sequence, values)
        elif op == 1:
            # Execution known without a cached value (e.g. prefix adoption).
            tracker.mark_executed(client, timestamp)
            model.mark_executed(client, timestamp)
        elif op == 2:
            # Retransmission query: silent unless genuinely cached.
            entry = tracker.reply(client, timestamp)
            assert entry == model.reply(client, timestamp), (step, client, timestamp)
            if entry is None:
                assert tracker.executed(client, timestamp) == model.is_executed(
                    client, timestamp
                )
        else:
            assert tracker.executed(client, timestamp) == model.is_executed(
                client, timestamp
            ), (step, client, timestamp)
        if step % 25 == 0:
            assert_equivalent(tracker, model)
    assert_equivalent(tracker, model)


@pytest.mark.parametrize("seed", [10, 11, 12])
def test_state_transfer_adoption_matches_model(seed):
    """Donor-to-recipient cache/prefix adoption preserves the equivalence."""
    rng = random.Random(seed)
    keep = rng.choice([1, 2, 4])
    donor = ClientReplyTracker(keep)
    donor_model = UnboundedModel(keep)
    recipient = ClientReplyTracker(keep)
    recipient_model = UnboundedModel(keep)
    sequence = 0
    for tracker, model in ((donor, donor_model), (recipient, recipient_model)):
        for _ in range(150):
            client = rng.choice(CLIENTS)
            timestamp = rng.randint(1, MAX_TS)
            sequence += 1
            if rng.random() < 0.7:
                values = (client, timestamp, sequence)
                tracker.record(client, timestamp, sequence, values)
                model.record(client, timestamp, sequence, values)
            else:
                tracker.mark_executed(client, timestamp)
                model.mark_executed(client, timestamp)

    recipient.adopt_prefixes(donor.prefixes())
    recipient_model.adopt_prefixes(donor.prefixes())
    recipient.adopt_cache(donor.cache_snapshot())
    recipient_model.adopt_cache(donor.cache_snapshot())
    assert_equivalent(recipient, recipient_model)

    # Adoption is idempotent: adopting the same donor again changes nothing.
    before = (recipient.prefixes(), recipient.cache_snapshot())
    recipient.adopt_prefixes(donor.prefixes())
    recipient.adopt_cache(donor.cache_snapshot())
    assert (recipient.prefixes(), recipient.cache_snapshot()) == before


def test_lowest_timestamp_eviction_not_insertion_order():
    """Gap-filling retries execute out of timestamp order; eviction must be
    by smallest timestamp, never FIFO."""
    tracker = ClientReplyTracker(2)
    tracker.record(0, 10, 1, ("late",))
    tracker.record(0, 12, 2, ("later",))
    # The gap-filling retry for ts=5 arrives last but is the *lowest*
    # timestamp: with the window discipline it can no longer be
    # retransmitted, so it is the right entry to evict.
    tracker.record(0, 5, 3, ("gap-fill",))
    assert tracker.reply(0, 5) is None
    assert tracker.reply(0, 10) == (1, ("late",))
    assert tracker.reply(0, 12) == (2, ("later",))
    # Exact tracking survives eviction: ts=5 is still known-executed.
    assert tracker.executed(0, 5)


@pytest.mark.parametrize("seed", [20, 21, 22])
def test_block_recording_matches_model_and_keeps_no_empty_gap_set(seed):
    """``record_block`` (one call per executed block) is ``record`` per
    request; the in-order path only moves the prefix, and a client whose
    holes are all filled has no gap set at all."""
    rng = random.Random(seed)
    tracker = ClientReplyTracker(3)
    model = UnboundedModel(3)
    next_ts = {client: 1 for client in CLIENTS}
    for sequence in range(1, 120):
        requests = []
        for _ in range(rng.randint(1, 4)):
            client = rng.choice(CLIENTS)
            # Mostly in order; sometimes a lost request leaves a hole that a
            # later block fills.
            timestamp = next_ts[client] + (1 if rng.random() < 0.15 else 0)
            if rng.random() < 0.2:
                timestamp = rng.randint(1, next_ts[client])
            next_ts[client] = max(next_ts[client], timestamp + 1)
            requests.append(make_request(timestamp, client_id=client))
        values = [(request.client_id, request.timestamp, sequence) for request in requests]
        tracker.record_block(sequence, requests, values)
        for request, value in zip(requests, values):
            model.record(request.client_id, request.timestamp, sequence, value)
        assert all(tracker._gaps.values()), tracker._gaps
    assert_equivalent(tracker, model)


def _tracker_state(tracker):
    caches = {client: list(cache.items()) for client, cache in tracker._cache.items()}
    return tracker._prefix, tracker._gaps, caches


#: Blocks of (client, offset) requests: a request's timestamp is its client's
#: highest so far plus the offset, at least 1 — offset 1 is the in-order next
#: request, 0 and below a duplicate or a gap-filling retry, above 1 a skip.
_BLOCKS = st.lists(
    st.lists(st.tuples(st.integers(0, 3), st.integers(-4, 4)), max_size=6), max_size=30
)


@settings(max_examples=200, deadline=None)
@given(blocks=_BLOCKS, keep=st.integers(1, 8))
def test_record_block_matches_the_per_request_record_loop(blocks, keep):
    """``record_block`` does the in-order step inline; over random windows,
    out-of-order and duplicate timestamps it must leave exactly the prefixes,
    gap sets and caches (entries and their order) a ``record`` loop leaves."""
    inline, reference = ClientReplyTracker(keep), ClientReplyTracker(keep)
    highest = {}
    for sequence, block in enumerate(blocks, start=1):
        requests = []
        for client, offset in block:
            timestamp = max(1, highest.get(client, 0) + offset)
            highest[client] = max(highest.get(client, 0), timestamp)
            requests.append(ClientRequest(client, timestamp, ()))
        values = [(request.client_id, request.timestamp, sequence) for request in requests]
        inline.record_block(sequence, requests, values)
        for request, value in zip(requests, values):
            reference.record(request.client_id, request.timestamp, sequence, value)
        assert _tracker_state(inline) == _tracker_state(reference)
