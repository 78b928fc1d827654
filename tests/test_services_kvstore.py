"""Unit tests for the plain key-value store service."""

from repro.services.interface import Operation
from repro.services.kvstore import KVOperation, KVStore


def test_put_get_delete_cycle():
    store = KVStore()
    assert store.execute(KVOperation.put("k", "v")).value is True
    assert store.execute(KVOperation.get("k")).value == "v"
    assert store.execute(KVOperation.delete("k")).value is True
    assert store.execute(KVOperation.get("k")).value is None
    assert store.execute(KVOperation.delete("k")).value is False


def test_query_is_read_only():
    store = KVStore()
    store.put("a", 1)
    result = store.query(KVOperation.get("a"))
    assert result.value == 1
    assert len(store.data) == 1


def test_query_rejects_writes():
    store = KVStore()
    result = store.query(KVOperation.put("a", 1))
    assert not result.ok


def test_execute_rejects_foreign_operations():
    store = KVStore()
    result = store.execute(Operation(kind="other", payload="junk"))
    assert not result.ok
    assert "not a KV operation" in result.error


def test_unknown_action_rejected():
    store = KVStore()
    bad = Operation(kind="kv", payload=KVOperation("increment", "k"))
    result = store.execute(bad)
    assert not result.ok


def test_execute_block_applies_in_order():
    store = KVStore()
    ops = [KVOperation.put("k", i) for i in range(5)]
    results = store.execute_block(1, ops)
    assert len(results) == 5
    assert store.data["k"] == 4


def test_snapshot_restore_roundtrip():
    store = KVStore()
    store.put("a", [1, 2, 3])
    store.put("b", {"nested": True})
    snapshot = store.snapshot()
    store.put("a", "overwritten")
    store.restore(snapshot)
    assert store.data["a"] == [1, 2, 3]
    assert store.data["b"] == {"nested": True}


def test_snapshot_is_deep_copy():
    store = KVStore()
    store.put("list", [1])
    snapshot = store.snapshot()
    store.data["list"].append(2)
    assert snapshot["list"] == [1]


def test_execution_cost_includes_persistence():
    cheap = KVStore(persist_cost_per_byte=0.0)
    costly = KVStore(persist_cost_per_byte=1e-6)
    op = KVOperation.put("k", "v" * 100)
    assert costly.execution_cost(op) > cheap.execution_cost(op)


def test_contains_and_keys():
    store = KVStore()
    store.put("x", 1)
    assert "x" in store.data
    assert "y" not in store.data
    assert list(store.data) == ["x"]
    store.execute(KVOperation.delete("x"))
    assert "x" not in store.data


def _replayed_by_a_loop(store, writes):
    """The per-key loop ``replay_delta`` stands for."""
    for write in writes:
        if len(write) == 2:
            store.put(*write)
        else:
            store.data.pop(write[0], None)


def _two_stores():
    stores = KVStore(), KVStore()
    for store in stores:
        for key in ("b", "a", "c"):
            store.put(key, key.upper())
    return stores


def test_put_only_delta_replays_like_a_per_key_loop():
    writes = (("x", 1), ("a", 2), ("x", 3), ("d", None), ("b", [1]))
    bulk, loop = _two_stores()
    bulk.replay_delta((writes, False))
    _replayed_by_a_loop(loop, writes)
    assert list(bulk.data.items()) == list(loop.data.items())
    assert list(bulk.data) == ["b", "a", "c", "x", "d"]


def test_mixed_delta_replays_like_a_per_key_loop():
    # A deleted then re-put key moves to the end; a missing key's delete is a no-op.
    writes = (("a", 1), ("a",), ("x", 2), ("a", 3), ("zz",), ("b",), ("b", 4))
    bulk, loop = _two_stores()
    bulk.replay_delta((writes, True))
    _replayed_by_a_loop(loop, writes)
    assert list(bulk.data.items()) == list(loop.data.items())
    assert list(bulk.data) == ["c", "x", "a", "b"]


def test_restore_refills_the_same_dict():
    store = KVStore()
    data = store.data
    store.put("a", 1)
    snapshot = store.snapshot()
    store.put("b", 2)
    store.restore(snapshot)
    assert store.data is data and data == {"a": 1}
    store.restore(store.data)  # its own contents: copied before the clear
    assert data == {"a": 1}
