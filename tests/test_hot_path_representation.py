"""Hot-path representation invariants (ROADMAP item 3 stage (a)).

Message instances are slotted frozen dataclasses whose ``size_bytes`` (and
other hot derived keys) are computed exactly once at construction and then
read as plain attributes.  These tests pin that representation:

* a microbench-shaped count proves ``size_bytes`` is computed once per
  instance, no matter how many times the network model reads it;
* message instances carry no ``__dict__``;
* whatever a run stashed on a sent message is deeply immutable (a walk over
  every message the fault goldens send);
* fixed seeds reproduce identical decision-hash chains and stats across two
  independently built clusters (the byte-identity invariant the perf work
  must preserve).
"""

import dataclasses

import pytest

from contract import FAULT_RUNS
from helpers import make_request, run_small_cluster
from repro.core import messages as core_messages
from repro.core.messages import ClientRequest, PrePrepare, SignShare
from repro.core.stats import ClientStats, SBFTReplicaStats
from repro.crypto.merkle import MerkleTree
from repro.pbft import messages as pbft_messages
from repro.protocols.cluster import build_cluster
from repro.services.interface import BlockOperations, OperationResult
from repro.sim.network import _message_size
from repro.workloads.kv_workload import KVWorkload


class CountingOperation:
    """Operation stand-in whose ``size_bytes`` reads are counted."""

    def __init__(self, size=64):
        self._size = size
        self.reads = 0

    @property
    def size_bytes(self):
        self.reads += 1
        return self._size


# ---------------------------------------------------------------------------
# size_bytes: computed exactly once per instance
# ---------------------------------------------------------------------------


def test_request_size_computed_exactly_once():
    ops = tuple(CountingOperation() for _ in range(4))
    request = ClientRequest(client_id=1, timestamp=7, operations=ops)
    assert all(op.reads == 1 for op in ops)

    # The network model (and anything else) may read the size arbitrarily
    # often without re-touching the operations.
    for _ in range(100):
        assert _message_size(request) == request.size_bytes
    assert all(op.reads == 1 for op in ops)
    assert isinstance(request.size_bytes, int)


def test_preprepare_size_does_not_retouch_nested_requests():
    ops = tuple(CountingOperation() for _ in range(2))
    request = ClientRequest(client_id=0, timestamp=1, operations=ops)
    block = PrePrepare(sequence=1, view=0, requests=(request,) * 8, digest="d")
    # The 8 references to the same request read its stashed int, not the ops.
    assert all(op.reads == 1 for op in ops)
    for _ in range(50):
        assert _message_size(block) == block.size_bytes
    assert all(op.reads == 1 for op in ops)


def _message_classes():
    """(qualified name, class) of every message class the two stacks define:
    this file is the one enforcer of message shape."""
    for module in (core_messages, pbft_messages):
        for name in dir(module):
            cls = getattr(module, name)
            if not isinstance(cls, type) or not hasattr(cls, "msg_type"):
                continue
            if cls.__module__ != module.__name__:
                continue  # re-exported (e.g. pbft reuses core messages)
            yield f"{module.__name__}.{name}", cls


def test_size_bytes_is_data_not_property():
    """No message class may recompute size_bytes per call."""
    for name, cls in _message_classes():
        descriptor = None
        for klass in cls.__mro__:
            if "size_bytes" in vars(klass):
                descriptor = vars(klass)["size_bytes"]
                break
        assert descriptor is not None, f"{name} has no size_bytes"
        assert not isinstance(descriptor, property) and not callable(descriptor), (
            f"{name}.size_bytes is recomputed per call"
        )


def test_request_id_stashed_at_construction():
    request = ClientRequest(client_id=3, timestamp=11, operations=())
    assert request.request_id == (3, 11)
    assert "request_id" in ClientRequest.__slots__


# ---------------------------------------------------------------------------
# Slotted layout
# ---------------------------------------------------------------------------


def test_messages_carry_no_dict():
    share = SignShare(sequence=1, view=0, replica_id=2, digest="h")
    request = ClientRequest(client_id=0, timestamp=1, operations=())
    for message in (share, request):
        assert not hasattr(message, "__dict__")
        with pytest.raises(AttributeError):
            object.__getattribute__(message, "__dict__")


def test_every_message_class_declares_slots():
    classes = dict(_message_classes())
    assert len(classes) >= 20  # the walk really finds the message classes
    for name, cls in classes.items():
        assert "__slots__" in vars(cls), f"{name} is unslotted"


def test_every_message_class_is_frozen_without_mutable_defaults():
    """One broadcast hands the same instance to every recipient, so a message
    must be a frozen dataclass, and no field may default to a fresh mutable
    container a recipient could then fill.  Every one is built by
    ``repro.records.frozen_record`` (tests/test_records.py compares each with
    the stock frozen dataclass)."""
    for name, cls in _message_classes():
        assert dataclasses.is_dataclass(cls), f"{name} is not a dataclass"
        assert cls.__dataclass_params__.frozen, f"{name} is not frozen"
        init = vars(cls)["__init__"].__code__.co_filename
        assert init == f"<record {cls.__qualname__}>", f"{name} is not a frozen_record"
        for field in dataclasses.fields(cls):
            assert field.default_factory not in (list, dict, set, bytearray), (
                f"{name}.{field.name} defaults to a mutable {field.default_factory.__name__}"
            )


# ---------------------------------------------------------------------------
# Stashes: what a run leaves on a shared message is deeply immutable
# ---------------------------------------------------------------------------


def _mutable_stashes(messages):
    """Walk every dataclass reachable from ``messages`` (through ``init=True``
    fields and tuples) and check every ``init=False`` slot on the way: it may
    hold str / int / float / bytes / bool / None / a type, tuples of those, or
    frozen dataclasses (walked in turn).  ``BlockOperations.digests`` is
    checked like a slot.  ``BlockOperations.replay`` — the first executor's
    entry, shared by design; what replaying it decides is compared against
    executing by the unshared differential (tests/test_batching.py) and the
    ``execute_everywhere`` tests — is checked for the two tuples every peer
    keeps as they are: its results hold only ``OperationResult`` and its
    journal tree's leaves only tuples of str / int.

    -> (problems, {(class name, slot) seen holding a non-default value}).
    """
    problems, filled, seen = [], set(), set()

    def is_leaf(leaf):
        return type(leaf) is tuple and all(type(item) in (str, int) for item in leaf)

    def check(value, where):
        if value is None or isinstance(value, (str, int, float, bytes, type)):
            return
        if isinstance(value, tuple):
            for index, item in enumerate(value):
                check(item, f"{where}[{index}]")
            if type(value) is BlockOperations:
                check(value.digests, f"{where}.digests")
                if value.replay is not None:
                    filled.add(("BlockOperations", "replay"))
                    entry = value.replay[1]
                    results, leaves = entry[0], entry[-1][0].leaves
                    if type(results) is not tuple or any(
                        type(item) is not OperationResult for item in results
                    ):
                        problems.append(f"{where}.replay results is not a tuple of OperationResult")
                    if type(leaves) is not tuple or not all(map(is_leaf, leaves)):
                        problems.append(f"{where}.replay leaves are not tuples of str / int")
        elif dataclasses.is_dataclass(value) and value.__dataclass_params__.frozen:
            walk(value)
        else:
            problems.append(f"{where} holds a {type(value).__name__}")

    def walk(value):
        if isinstance(value, tuple):
            for item in value:
                walk(item)
        elif dataclasses.is_dataclass(value) and id(value) not in seen:
            seen.add(id(value))  # every walked object is kept alive by ``messages``
            for field in dataclasses.fields(value):
                held = getattr(value, field.name)
                if field.init:
                    walk(held)
                else:
                    if held != field.default:
                        filled.add((type(value).__name__, field.name))
                    check(held, f"{type(value).__name__}.{field.name}")

    walk(tuple(messages))
    return problems, filled


#: The eleven lazily filled stashes (the other ``init=False`` slots are
#: ``size_bytes`` / ``request_id``, set in ``__post_init__``).
STASHES = {
    ("PrePrepare", "_exec_plan"), ("PrePrepare", "_reply_values"),
    ("PrePrepare", "_reply_bodies"), ("PrePrepare", "_expected_digest"),
    ("Operation", "_authkv_digest"), ("Signature", "_signed_by"), ("Signature", "_signed"),
    ("SignatureShare", "_stamp"), ("CombinedSignature", "_verified"), ("MerkleProof", "_proved"),
    ("KVProof", "_chained"),
}

#: What PBFT never fills: it has no threshold shares or proofs and sends no
#: execute-ack (so cuts no Merkle or chain proof).
NOT_IN_PBFT = {
    ("SignatureShare", "_stamp"), ("CombinedSignature", "_verified"), ("MerkleProof", "_proved"),
    ("KVProof", "_chained"),
}


@pytest.mark.parametrize("protocol,kwargs", list(FAULT_RUNS.values()), ids=list(FAULT_RUNS))
def test_every_stash_on_a_sent_message_is_deeply_immutable(protocol, kwargs):
    """One broadcast hands the same instance to every recipient, so a stash
    that aliased a list or dict would let one replica's mutation reach the
    rest (the unfrozen ``_exec_plan`` operations list of PR 9).  Walked after
    the run: stashes are filled lazily, long after the send.  Each run is
    its golden with four more requests per client, so every walk covers
    over 300 sent messages."""
    sent = []
    _cluster, result = run_small_cluster(
        protocol, post_build=lambda cluster: cluster.network.add_tap(
            lambda src, dst, message: sent.append(message)),
        **dict(kwargs, requests_per_client=kwargs["requests_per_client"] + 4),
    )
    problems, filled = _mutable_stashes(sent)
    assert not problems, sorted(set(problems))[:10]
    # The walk really reached the stashes, filled in.  SBFT signs a block's
    # replies only in degraded mode.
    assert len(sent) > 300
    absent = set(NOT_IN_PBFT) if protocol == "pbft" else set()
    if protocol != "pbft" and not any(
        stats["blocks_replied_directly"] for stats in result.replica_stats.values()
    ):
        absent.add(("PrePrepare", "_reply_bodies"))
    assert filled >= STASHES - absent
    assert ("BlockOperations", "replay") in filled


def test_the_stash_walk_fails_on_a_list_in_a_stash():
    block = PrePrepare(sequence=1, view=0, requests=(make_request(1),), digest="d")
    object.__setattr__(block, "_reply_values", ("digest", (("v",),)))
    problems, filled = _mutable_stashes([block])
    assert not problems and ("PrePrepare", "_reply_values") in filled
    object.__setattr__(block, "_reply_values", ("digest", [("v",)]))
    assert _mutable_stashes([block])[0] == ["PrePrepare._reply_values[1] holds a list"]
    # ...and on an unfrozen plan: the operations of the block as a plain list.
    object.__setattr__(block, "_exec_plan", (object, None, list(block.requests[0].operations), 0.0))
    assert "PrePrepare._exec_plan[2] holds a list" in _mutable_stashes([block])[0]
    digests = BlockOperations(block.requests[0].operations)
    digests.digests = ["not", "a", "tuple"]
    object.__setattr__(block, "_exec_plan", (object, None, digests, 0.0))
    assert "PrePrepare._exec_plan[2].digests holds a list" in _mutable_stashes([block])[0]
    # ...and on a replay entry whose results a peer would have to copy.
    digests.digests = None
    object.__setattr__(block, "_reply_values", None)
    result, tree = OperationResult(value="v"), MerkleTree(((1, 0, "op", "res"),))
    digests.replay = (("key",), ((result,), (), (tree, "d")))
    assert not _mutable_stashes([block])[0]
    digests.replay = (("key",), ([result], (), (tree, "d")))
    assert _mutable_stashes([block])[0] == [
        "PrePrepare._exec_plan[2].replay results is not a tuple of OperationResult"
    ]
    # ...and on journal leaves holding anything but str / int.
    digests.replay = (("key",), ((result,), (), (MerkleTree(((1, 0, "op", ["res"]),)), "d")))
    assert _mutable_stashes([block])[0] == [
        "PrePrepare._exec_plan[2].replay leaves are not tuples of str / int"
    ]


def test_stats_counters_behave_like_dicts():
    stats = SBFTReplicaStats()
    stats.blocks_committed += 3
    assert stats["blocks_committed"] == 3
    assert dict(stats)["blocks_committed"] == 3
    assert set(stats.keys()) == set(dict(stats))
    with pytest.raises(KeyError):
        stats["no_such_counter"]
    client = ClientStats()
    assert dict(client) == {
        "acks_accepted": 0,
        "acks_rejected": 0,
        "fallbacks": 0,
        "retries": 0,
    }


# ---------------------------------------------------------------------------
# Fixed-seed identity
# ---------------------------------------------------------------------------


def _run_point(protocol, seed=5):
    cluster = build_cluster(protocol, f=1, num_clients=3, topology="continent", seed=seed)
    workload = KVWorkload(requests_per_client=4, batch_size=2)
    return cluster.run(workload, max_sim_time=120.0, sanitize=True)


@pytest.mark.parametrize("protocol", ["sbft-c0", "pbft"])
def test_fixed_seed_runs_are_byte_identical(protocol):
    first = _run_point(protocol)
    second = _run_point(protocol)
    assert first.decision_hash == second.decision_hash
    assert first.decision_trace == second.decision_trace
    assert first.replica_stats == second.replica_stats
    assert first.client_stats == second.client_stats
    assert first.events_processed == second.events_processed
    assert first.network_messages == second.network_messages
    assert first.network_bytes == second.network_bytes
    assert first.sim_time == second.sim_time
    assert first.completed_operations == second.completed_operations
    assert first.completed_operations > 0
