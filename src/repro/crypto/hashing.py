"""SHA256 digest helpers.

SBFT hashes a decision block together with its sequence number and view as
``h = H(s || v || r)`` (Section V-C); the pipelined view-change variant
additionally chains the previous block hash (Section V-G.1).
"""

from __future__ import annotations

import hashlib
import operator
from typing import Any, Iterable

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

    A flat dict (``str`` keys, values of those four types: a ledger receipt)
    is keyed by its raw sorted items.  Its keys are distinct strs — the sort
    never compares values, and each is the ``str(key)`` the encoding sorts and
    writes — so equal pairs encode equally, as above.  Its elements are pairs,
    never equal to a raw tuple's scalars or a tagged key's type object; the
    one key it shares is ``()``, and ``{}`` encodes like the empty tuple.
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
        for key, item in value.items():
            item_type = type(item)
            if type(key) is not str or (
                item_type is not str and item_type is not int
                and item_type is not bool and item is not None
            ):
                break
        else:
            return tuple(sorted(value.items()))
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


# Every table below is built at import time, in every process, so each stays
# under ~1.5k entries: a prefixed-int table over -1024..65535 (66k entries)
# cost 7.4 MB of peak RSS and ~30 ms of start-up for no further speed.

#: Interned 4-byte length prefixes for the common short encodings: one prefix
#: per item, and materializing a fresh ``bytes`` for each would dominate small
#: hashes.
_LEN4 = tuple(i.to_bytes(4, "big") for i in range(1 << 10))

#: Length-prefixed encodings of the ints -128..1023 (sequence numbers, views,
#: replica ids), indexed by the int itself: 0..1023 sit at their own index and
#: -128..-1 at the end, where a negative index finds them.
_SMALL_INTS = tuple(
    _LEN4[len(data)] + data
    for data in (
        i.to_bytes((i.bit_length() + 8) // 8, "big", signed=True)
        for i in (*range(1024), *range(-128, 0))
    )
)

#: Length-prefixed encodings of ``True``, ``False`` and ``None``.
_ATOMS = {True: _LEN4[1] + b"\x01", False: _LEN4[1] + b"\x00", None: _LEN4[5] + b"\x00none"}


def _encode_items(values: Iterable[Any], out: list) -> int:
    """Append each value's 4-byte big-endian length and canonical encoding to
    ``out`` (a list of chunks) and return the number of bytes appended.

    The encoding: ``str`` is UTF-8; ``int`` its two's-complement big-endian
    bytes, ``bit_length() // 8 + 1`` of them; ``bool`` one byte; ``None``
    ``b"\\x00none"``; a tuple or list the concatenation of its items'
    length-prefixed encodings; a dict the sorted list of its ``(str(key),
    encoded value)`` pairs; bytes-like objects their bytes; ``float`` and
    anything else — a subclass of one of these types included — the UTF-8 of
    its ``repr``.  A container reserves its prefix slot and fills it in once
    its items are written.
    """
    append = out.append
    total = 0
    for value in values:
        kind = type(value)
        if kind is str:
            data = value.encode()
        elif kind is int and -128 <= value < 1024:
            data = _SMALL_INTS[value]
            append(data)
            total += len(data)
            continue
        elif kind is bool or value is None:
            data = _ATOMS[value]
            append(data)
            total += len(data)
            continue
        elif kind is tuple or kind is list or kind is dict:
            slot = len(out)
            append(b"")
            length = _encode_items(_dict_pairs(value) if kind is dict else value, out)
            out[slot] = _LEN4[length] if length < 1024 else length.to_bytes(4, "big")
            total += 4 + length
            continue
        elif kind is int:
            data = value.to_bytes((value.bit_length() + 8) // 8, "big", signed=True)
        elif kind is bytes or kind is bytearray or kind is memoryview:
            data = bytes(value)
        else:
            data = repr(value).encode()
        length = len(data)
        append(_LEN4[length] if length < 1024 else length.to_bytes(4, "big"))
        append(data)
        total += 4 + length
    return total


def _dict_pairs(value: dict) -> list:
    """A dict's normal form: its ``(str(key), encoded value)`` pairs, sorted.
    Values are encoded first so the order is total whatever their types."""
    pairs = []
    for key, item in value.items():
        chunks: list = []
        _encode_items((item,), chunks)
        pairs.append((str(key), b"".join(chunks)[4:]))
    pairs.sort()
    return pairs


def _canonical_bytes(parts: tuple) -> bytes:
    """The exact byte stream :func:`sha256_hex` hashes for ``parts``."""
    out: list = []
    _encode_items(parts, out)
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
