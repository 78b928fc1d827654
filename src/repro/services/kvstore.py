"""Plain in-memory key-value store service.

Used by the key-value micro-benchmark of Section IX ("each request is a single
put operation for writing a random value to a random key") and as the storage
backend of the authenticated store and the ledger.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.crypto.hashing import sha256_hex
from repro.services.interface import Operation, OperationResult, ReplicatedService

#: Shared constant results for the mutation fast paths.  ``OperationResult``
#: is frozen, so every successful put (the dominant operation of the paper's
#: KV benchmark) can return one immutable instance instead of allocating.
_TRUE_RESULT = OperationResult(value=True)
_FALSE_RESULT = OperationResult(value=False)


@dataclass(frozen=True)
class KVOperation:
    """Payload of a key-value operation: ``put``, ``get`` or ``delete``."""

    action: str
    key: str
    value: Any = None

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
    """Deterministic dictionary-backed key-value store."""

    def __init__(self, persist_cost_per_byte: float = 0.0):
        self._data: Dict[str, Any] = {}
        self._persist_cost_per_byte = persist_cost_per_byte

    # ------------------------------------------------------------------
    # ReplicatedService
    # ------------------------------------------------------------------
    def execute(self, operation: Operation) -> OperationResult:
        payload = operation.payload
        if not isinstance(payload, KVOperation):
            return OperationResult(ok=False, error="not a KV operation")
        action = payload.action
        if action == "put":
            self._data[payload.key] = payload.value
            return _TRUE_RESULT
        if action == "get":
            return OperationResult(value=self._data.get(payload.key))
        if action == "delete":
            existed = payload.key in self._data
            self._data.pop(payload.key, None)
            return _TRUE_RESULT if existed else _FALSE_RESULT
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

    def replay_delta(self, delta: Tuple[Tuple[tuple, ...], bool]) -> None:
        """Apply a recorded state delta (the execution cache's, for both the
        KV service and the ledger): ``(writes, has_deletes)``, where
        ``writes`` is the mutation stream in operation order — ``(key,
        value)`` for a put, ``(key,)`` for a delete — so even dict insertion
        order matches an uncached execution.  Without deletes that is one
        ``dict.update``, which assigns in order exactly like a loop."""
        writes, has_deletes = delta
        data = self._data
        if not has_deletes:
            data.update(writes)
            return
        for write in writes:
            if len(write) == 2:
                data[write[0]] = write[1]
            else:
                data.pop(write[0], None)

    def snapshot(self) -> Any:
        return copy.deepcopy(self._data)

    def restore(self, snapshot: Any) -> None:
        contents = copy.deepcopy(snapshot)
        self._data.clear()
        self._data.update(contents)

    # ------------------------------------------------------------------
    # Direct access (tests, ledger backend)
    # ------------------------------------------------------------------
    @property
    def data(self) -> Dict[str, Any]:
        """The live contents, one dict for the store's lifetime (``restore``
        refills it in place)."""
        return self._data

    def get(self, key: str, default: Optional[Any] = None) -> Any:
        return self._data.get(key, default)

    def put(self, key: str, value: Any) -> None:
        self._data[key] = value

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def keys(self):
        return self._data.keys()

    def contents_digest(self) -> str:
        """Order-independent digest of the full key-value contents.

        Used by the ledger's execution cache as a state fingerprint: two
        stores with equal contents produce equal digests.  O(store size) —
        callers are expected to memoize.
        """
        return sha256_hex("kv-contents", sorted(self._data.items()))
