"""SHA256 digest helpers.

SBFT hashes a decision block together with its sequence number and view as
``h = H(s || v || r)`` (Section V-C); the pipelined view-change variant
additionally chains the previous block hash (Section V-G.1).
"""

from __future__ import annotations

import hashlib
import operator
from typing import Any, Iterable, Union

Bytes = Union[bytes, bytearray, memoryview]


def _encode_str(value: str) -> bytes:
    return value.encode("utf-8")


def _encode_bool(value: bool) -> bytes:
    return b"\x01" if value else b"\x00"


def _encode_int(value: int) -> bytes:
    return value.to_bytes((value.bit_length() + 8) // 8 or 1, "big", signed=True)


def _encode_float(value: float) -> bytes:
    return repr(value).encode("utf-8")


def _encode_none(value: None) -> bytes:
    return b"\x00none"


def _sorted_dict_items(value: dict) -> list:
    """Order-independent dict normal form: sorted ``(str(key), encoded value)``
    pairs.  Values are pre-encoded to ``bytes`` so the sort order is total and
    the streaming path below emits the same bytes as the materializing one."""
    return sorted((str(k), _to_bytes(v)) for k, v in value.items())


def _encode_sequence(value: Any) -> bytes:
    out = bytearray()
    for item in value:
        part = _to_bytes(item)
        out += len(part).to_bytes(4, "big")
        out += part
    return bytes(out)


def _encode_dict(value: dict) -> bytes:
    return _encode_sequence(_sorted_dict_items(value))


#: Exact-type fast path for the canonical encoder (the hot inner loop of every
#: digest).  Subclasses (which ``type()`` dispatch misses) fall back to the
#: isinstance chain below, which produces identical bytes.
_ENCODERS = {
    bytes: bytes,
    bytearray: bytes,
    memoryview: bytes,
    str: _encode_str,
    bool: _encode_bool,
    int: _encode_int,
    float: _encode_float,
    type(None): _encode_none,
    list: _encode_sequence,
    tuple: _encode_sequence,
    dict: _encode_dict,
}


def _to_bytes(value: Any) -> bytes:
    """Canonical byte encoding for the values we hash."""
    encoder = _ENCODERS.get(type(value))
    if encoder is not None:
        return encoder(value)
    if isinstance(value, (bytes, bytearray, memoryview)):
        return bytes(value)
    if isinstance(value, str):
        return value.encode("utf-8")
    if isinstance(value, bool):
        return _encode_bool(value)
    if isinstance(value, int):
        return _encode_int(value)
    if isinstance(value, float):
        return _encode_float(value)
    if isinstance(value, (list, tuple)):
        return _encode_sequence(value)
    if isinstance(value, dict):
        return _encode_dict(value)
    return repr(value).encode("utf-8")


_pair_key = operator.itemgetter(0)


def memo_key(value: Any) -> Any:
    """Type-tagged memo key for caches over :func:`sha256_hex` results.

    Python equality conflates ``1``, ``1.0`` and ``True`` (same hash, equal),
    but the canonical encoding distinguishes int from float, so a memo keyed
    on the raw value could return the digest of a different encoding.  Tagging
    every scalar with its exact type (recursing into tuples and dicts) keeps
    cache hits canonical-encoding-exact.  A dict gets a hashable normal form
    that mirrors its encoding: ``(str(key), memo_key(value))`` pairs ordered
    by ``str(key)``, so ``{1: x}`` and ``{"1": x}`` share a key exactly as
    they share a digest, and insertion order does not matter.  Anything with
    an unhashable part left (a list) surfaces as ``TypeError`` at lookup,
    which callers treat as a cache bypass.

    Strings, and tuples made only of strings, exact ints, bools and ``None``
    (digest and Merkle-leaf paths and signed protocol messages, the hottest
    keys), are used raw.  This cannot collide: a ``str`` only equals another
    ``str`` and ``None`` only ``None``; an ``int`` or ``bool`` inside a raw
    tuple only equals another raw-eligible element if that element is an
    equal ``int`` or ``bool``, and the canonical encoding writes ``True`` and
    ``False`` exactly as it writes ``1`` and ``0`` (``float`` look-alikes,
    which it does not, are excluded from the raw path); tagged keys are
    tuples whose first element is a type object, which never equals a raw
    element.  Equal raw keys therefore always share one canonical encoding.
    """
    kind = type(value)
    if kind is str:
        return value
    if kind is tuple:
        for item in value:
            item_type = type(item)
            if (
                item_type is not str
                and item_type is not int
                and item_type is not bool
                and item is not None
            ):
                return (tuple, tuple(memo_key(inner) for inner in value))
        return value
    if kind is dict:
        # Ordered by ``str(key)`` alone: values of different types need not be
        # comparable.  Keys that collide under ``str`` keep insertion order,
        # which can only split one encoding over two memo keys, never merge two.
        pairs = sorted(((str(k), memo_key(v)) for k, v in value.items()), key=_pair_key)
        return (dict, tuple(pairs))
    return (kind, value)


def provenance_key(value: Any) -> Any:
    """``memo_key(value)`` for a provenance stamp (``Signature._signed``,
    ``MerkleProof._proved``), or ``None`` (which equals no memo key) when it
    has unhashable parts such as lists: those compare by plain ``==``, which
    conflates 1 and 1.0 where the encoding does not, so such a value gets no
    stamp and every check recomputes."""
    key = memo_key(value)
    try:
        hash(key)
    except TypeError:
        return None
    return key


#: Interned 4-byte length prefixes for the common short encodings (digest
#: strings, small ints): the streaming encoder emits one prefix per item, and
#: materializing a fresh ``bytes`` for each would dominate small hashes.
_LEN4 = tuple(i.to_bytes(4, "big") for i in range(1 << 10))


def _flatten_into(value: Any, out: list) -> int:
    """Append ``value``'s canonical encoding to ``out`` as a flat run of
    chunks (length prefixes included) and return its total byte length.

    This is the streaming counterpart of :func:`_to_bytes`: byte-for-byte the
    same encoding, but nested sequences append their items' chunks directly
    instead of concatenating a fresh ``bytes`` per nesting level.  Length
    prefixes are reserved as placeholder slots and filled in after the
    recursion, when the encoded length is known.
    """
    encoder = _ENCODERS.get(type(value))
    if encoder is _encode_sequence:
        pass
    elif encoder is _encode_dict:
        value = _sorted_dict_items(value)
    elif encoder is not None:
        part = encoder(value)
        out.append(part)
        return len(part)
    else:
        part = _to_bytes(value)  # subclass / repr fallback, materializing
        out.append(part)
        return len(part)
    total = 0
    append = out.append
    for item in value:
        slot = len(out)
        append(b"")
        length = _flatten_into(item, out)
        out[slot] = _LEN4[length] if length < 1024 else length.to_bytes(4, "big")
        total += 4 + length
    return total


def _canonical_bytes(parts: tuple) -> bytes:
    """The exact byte stream :func:`sha256_hex` hashes for ``parts``."""
    out: list = []
    for part in parts:
        slot = len(out)
        out.append(b"")
        length = _flatten_into(part, out)
        out[slot] = _LEN4[length] if length < 1024 else length.to_bytes(4, "big")
    return b"".join(out)


def sha256_hex(*parts: Any) -> str:
    """Hex SHA256 of the canonical encoding of ``parts``."""
    return hashlib.sha256(_canonical_bytes(parts)).hexdigest()


def sha256_int(*parts: Any) -> int:
    """SHA256 of ``parts`` as an integer (used to hash onto the mock group)."""
    return int.from_bytes(hashlib.sha256(_canonical_bytes(parts)).digest(), "big")


def block_digest(sequence: int, view: int, requests: Iterable[Any]) -> str:
    """``H(s || v || r)`` — the digest replicas sign in the sign-share phase."""
    return sha256_hex("block", sequence, view, list(requests))


def chain_digest(sequence: int, view: int, requests: Iterable[Any], prev_digest: str) -> str:
    """``H(s || v || r || h_{x-1})`` — pipelined view-change block digest."""
    return sha256_hex("chain-block", sequence, view, list(requests), prev_digest)
