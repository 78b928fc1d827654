"""World state for the mini-EVM, backed by a key-value store.

The paper's implementation keeps contract code and contract storage in the
replicated key-value store (Section IV: "The key-value store keeps the state
of the ledger service"); this module provides that mapping.  Any object with
``get(key)`` / ``put(key, value)`` works as the backend; the ledger service
hands in the key-value store under its journal, so the whole EVM state
inherits Merkle authentication.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Dict, Optional

from repro.crypto.hashing import sha256_hex
from repro.errors import EVMError

@lru_cache(maxsize=1 << 10)
def _decode_code(hex_code: str) -> bytes:
    # Contract code is stored hex-encoded (the KV backends hold str/int
    # values), but ``get_code`` is called once per message execution —
    # decoding the same hex blob every call was measurable interpreter
    # overhead.
    return bytes.fromhex(hex_code)


class WorldState:
    """Account balances, nonces, contract code and contract storage.

    All persistent data lives in the backing store under namespaced keys
    (``acct/<addr>/balance``, ``code/<addr>``, ``storage/<addr>/<slot>``), so a
    Merkle-authenticated backend authenticates the entire EVM state.
    """

    def __init__(self, backend: Optional[Any] = None):
        self._backend = backend if backend is not None else _DictBackend()

    # ------------------------------------------------------------------
    # Accounts
    # ------------------------------------------------------------------
    def set_balance(self, address: str, balance: int) -> None:
        if balance < 0:
            raise EVMError(f"negative balance for {address}")
        self._backend_put(f"acct/{address}/balance", balance)

    def get_balance(self, address: str) -> int:
        return int(self._backend_get(f"acct/{address}/balance", 0))

    def add_balance(self, address: str, amount: int) -> None:
        self.set_balance(address, self.get_balance(address) + amount)

    def sub_balance(self, address: str, amount: int) -> None:
        balance = self.get_balance(address)
        if balance < amount:
            raise EVMError(f"insufficient balance for {address}")
        self.set_balance(address, balance - amount)

    def get_nonce(self, address: str) -> int:
        return int(self._backend_get(f"acct/{address}/nonce", 0))

    def increment_nonce(self, address: str) -> int:
        nonce = self.get_nonce(address) + 1
        self._backend_put(f"acct/{address}/nonce", nonce)
        return nonce

    # ------------------------------------------------------------------
    # Code and storage
    # ------------------------------------------------------------------
    def set_code(self, address: str, code: bytes) -> None:
        self._backend_put(f"code/{address}", code.hex())

    def get_code(self, address: str) -> bytes:
        hex_code = self._backend_get(f"code/{address}", "")
        if not hex_code:
            return b""
        return _decode_code(hex_code)

    def storage_load(self, address: str, slot: int) -> int:
        return int(self._backend_get(f"storage/{address}/{slot:x}", 0))

    def storage_store(self, address: str, slot: int, value: int) -> None:
        self._backend_put(f"storage/{address}/{slot:x}", value)

    # ------------------------------------------------------------------
    # Contract address derivation
    # ------------------------------------------------------------------
    def derive_contract_address(self, creator: str, nonce: int) -> str:
        return "0x" + sha256_hex("contract-address", creator, nonce)[:40]

    # ------------------------------------------------------------------
    # Backend plumbing
    # ------------------------------------------------------------------
    def _backend_get(self, key: str, default: Any) -> Any:
        value = self._backend.get(key)
        return default if value is None else value

    def _backend_put(self, key: str, value: Any) -> None:
        self._backend.put(key, value)


class _DictBackend:
    """Trivial dictionary backend for standalone (non-replicated) use."""

    def __init__(self):
        self._data: Dict[str, Any] = {}

    def get(self, key: str, default: Any = None) -> Any:
        return self._data.get(key, default)

    def put(self, key: str, value: Any) -> None:
        self._data[key] = value
