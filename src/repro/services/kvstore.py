"""Plain in-memory key-value store service.

Used by the key-value micro-benchmark of Section IX ("each request is a single
put operation for writing a random value to a random key") and as the storage
backend of the authenticated store and the ledger.
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.crypto.hashing import sha256_hex
from repro.records import frozen_record
from repro.services.interface import Operation, OperationResult, ReplicatedService

#: Shared constant results for the mutation fast paths.  ``OperationResult``
#: is frozen, so every successful put (the dominant operation of the paper's
#: KV benchmark) can return one immutable instance instead of allocating.
_TRUE_RESULT = OperationResult(value=True)
_FALSE_RESULT = OperationResult(value=False)

#: A key a dry run deleted, in its overlay (never in the contents).
_DELETED = object()


class Contents(dict):
    """A store's contents: a plain dict that can be weakly referenced, so
    replicas at one state can share one version of it (:meth:`KVStore.share`)
    without anything but a store keeping it alive."""

    __slots__ = ("__weakref__",)


@frozen_record
class KVOperation:
    """Payload of a key-value operation: ``put``, ``get`` or ``delete``."""

    action: str
    key: str
    value: Any = None

    def __repr__(self) -> str:
        # The dataclass repr without its recursion guard (a frozen payload
        # cannot contain itself).  Operation digests hash this text.
        name = type(self).__qualname__
        return f"{name}(action={self.action!r}, key={self.key!r}, value={self.value!r})"

    @staticmethod
    def put(key: str, value: Any) -> Operation:
        return Operation(kind="kv", payload=KVOperation("put", key, value))

    @staticmethod
    def get(key: str) -> Operation:
        return Operation(kind="kv", payload=KVOperation("get", key), read_only=True)

    @staticmethod
    def delete(key: str) -> Operation:
        return Operation(kind="kv", payload=KVOperation("delete", key))


class KVStore(ReplicatedService):
    """Deterministic dictionary-backed key-value store.

    A write outside :meth:`dry_run` and :meth:`replay_delta` sets
    ``written_directly``: whoever fingerprints the contents
    (``AuthenticatedKVStore``) re-fingerprints them and clears it.

    **Copy-on-write.**  Once :meth:`share` hands the contents out (or
    :meth:`adopt` takes another store's), no one mutates that version: the
    next write of any kind first gives this store a private copy
    (:meth:`_writable`).  :meth:`restore` binds fresh private contents.
    """

    def __init__(self, persist_cost_per_byte: float = 0.0):
        self._data: Contents = Contents()
        # Whether another store may hold ``_data``.
        self._shared = False
        self._persist_cost_per_byte = persist_cost_per_byte
        # During ``dry_run``: the latest write per key (``_DELETED`` for a
        # delete), read before the contents; from the run's first delete on,
        # also the write stream, which starts with the overlay's puts so far
        # (put-only writes replay exactly in first-write order, last value).
        self._overlay: Optional[Dict[str, Any]] = None
        self._writes: Optional[List[tuple]] = None
        self.written_directly = False

    # ------------------------------------------------------------------
    # ReplicatedService
    # ------------------------------------------------------------------
    def execute(self, operation: Operation) -> OperationResult:
        payload = operation.payload
        if not isinstance(payload, KVOperation):
            return OperationResult(ok=False, error="not a KV operation")
        action = payload.action
        if action == "put":
            self.put(payload.key, payload.value)
            return _TRUE_RESULT
        if action == "get":
            return OperationResult(value=self.get(payload.key))
        if action == "delete":
            key = payload.key
            if self.get(key, _DELETED) is _DELETED:
                return _FALSE_RESULT
            overlay = self._overlay
            if overlay is None:
                del self._writable()[key]
                self.written_directly = True
                return _TRUE_RESULT
            if self._writes is None:
                self._writes = list(overlay.items())
            overlay[key] = _DELETED
            self._writes.append((key,))
            return _TRUE_RESULT
        return OperationResult(ok=False, error=f"unknown action {action!r}")

    def query(self, operation: Operation) -> OperationResult:
        payload = operation.payload
        if not isinstance(payload, KVOperation) or payload.action != "get":
            return OperationResult(ok=False, error="not a KV query")
        return OperationResult(value=self._data.get(payload.key))

    def execution_cost(self, operation: Operation) -> float:
        cost = 3e-6
        if self._persist_cost_per_byte:
            cost += self._persist_cost_per_byte * operation.size_bytes
        return cost

    def dry_run(self, run: Callable[..., Any], *args: Any) -> Tuple[Any, Tuple[Tuple[tuple, ...], bool]]:
        """Call ``run(*args)`` with this store's writes held in an overlay:
        reads through :meth:`get` (and :meth:`execute`) see them, the contents
        do not change.  Returns what ``run`` returned and the delta that
        applies its writes (:meth:`replay_delta`)."""
        self._overlay = overlay = {}
        try:
            value = run(*args)
            writes = self._writes
        finally:
            self._overlay = self._writes = None
        if writes is None:
            return value, (tuple(overlay.items()), False)
        return value, (tuple(writes), True)

    def replay_delta(self, delta: Tuple[Tuple[tuple, ...], bool]) -> None:
        """Apply a dry run's delta: ``(writes, has_deletes)``, where
        ``writes`` replays the run's mutations in order — ``(key, value)``
        for a put, ``(key,)`` for a delete — so even dict insertion order
        matches executing the operations.  Without deletes it is each key's
        last value in first-write order, one ``dict.update``, which assigns
        in order exactly like a loop."""
        writes, has_deletes = delta
        data = self._writable()
        if not has_deletes:
            data.update(writes)
            return
        for write in writes:
            if len(write) == 2:
                data[write[0]] = write[1]
            else:
                data.pop(write[0], None)

    def _writable(self) -> Contents:
        """The contents, copied first if another store may hold them."""
        if self._shared:
            self._data = Contents(self._data)
            self._shared = False
        return self._data

    def share(self) -> Contents:
        """The contents, from now on never mutated: what a store at the same
        state may :meth:`adopt`."""
        self._shared = True
        return self._data

    def adopt(self, contents: Contents) -> None:
        """Take another store's shared contents as this store's own, in
        place of contents equal to them (no write is recorded)."""
        self._data = contents
        self._shared = True

    def snapshot(self) -> Any:
        return copy.deepcopy(dict(self._data))

    def restore(self, snapshot: Any) -> None:
        self._data = Contents(copy.deepcopy(snapshot))
        self._shared = False
        self.written_directly = True

    # ------------------------------------------------------------------
    # Direct access (tests, the ledger's world state)
    # ------------------------------------------------------------------
    def get(self, key: str, default: Any = None) -> Any:
        overlay = self._overlay
        if overlay and key in overlay:
            value = overlay[key]
            return default if value is _DELETED else value
        return self._data.get(key, default)

    def put(self, key: str, value: Any) -> None:
        overlay = self._overlay
        if overlay is None:
            self._writable()[key] = value
            self.written_directly = True
            return
        overlay[key] = value
        if self._writes is not None:
            self._writes.append((key, value))

    def contents_digest(self) -> str:
        """Order-independent digest of the full key-value contents.

        What the execution cache's state fingerprint hashes: two stores with
        equal contents produce equal digests.  O(store size) —
        callers are expected to memoize.
        """
        return sha256_hex("kv-contents", sorted(self._data.items()))
