"""Unit tests for digest helpers."""

import dataclasses
import enum
import itertools
import math

from hypothesis import given, settings, strategies as st

from repro.crypto import hashing
from repro.crypto.hashing import block_digest, chain_digest, memo_key, sha256_hex, sha256_int


def test_sha256_hex_deterministic():
    assert sha256_hex("a", 1, b"x") == sha256_hex("a", 1, b"x")
    assert len(sha256_hex("a")) == 64


def test_sha256_hex_distinguishes_argument_boundaries():
    # ("ab", "c") must not collide with ("a", "bc").
    assert sha256_hex("ab", "c") != sha256_hex("a", "bc")


def test_sha256_hex_handles_many_types():
    values = ["s", 5, -5, 3.14, True, False, None, [1, 2], (3, 4), {"k": "v"}, b"bytes"]
    digests = {sha256_hex(v) for v in values}
    assert len(digests) == len(values)


def test_equal_memo_keys_always_share_one_canonical_encoding():
    """The contract every digest memo and the signature-provenance fast path
    rest on, over Python's equal-but-differently-typed look-alikes."""
    scalars = [0, 1, 2, True, False, 0.0, 1.0, None, "", "1", "a", b"a"]
    pool = list(scalars)
    pool += [(a,) for a in scalars] + [(a, "x") for a in scalars]
    pool += [("reply", 0, 1, (a, b)) for a, b in itertools.product(scalars[:8], repeat=2)]
    # Dicts (ledger receipts): the key mirrors the encoding, which writes keys
    # as str(key) and sorts them, and values type-exactly.
    pool += [{"k": a} for a in scalars] + [{1: a} for a in scalars[:8]]
    pool += [{"1": a} for a in scalars[:8]] + [("reply", {"gas": a}) for a in scalars[:8]]
    pool += [{"a": 1, "b": 2.0}, {"b": 2.0, "a": 1}, {"a": 1, "b": 2}, {"a": {"b": 1}}]
    pool += [{1: "x", "1": "y"}, {"1": "y", 1: "x"}, {1: "y", "1": "x"}, {}, ()]
    # Flat dicts (str keys, str/int/bool/None values) take the raw path: next
    # to look-alikes, reorderings, the tuples their items spell, and tagged
    # dicts over the same keys.
    flat = [{"a": a} for a in scalars] + [{"a": a, "b": "x"} for a in scalars[:8]]
    flat += [{"b": "x", "a": a} for a in scalars[:8]] + [(("a", a),) for a in scalars[:8]]
    flat += [("a", a) for a in scalars[:8]] + [{"a": a, "b": [1]} for a in scalars[:3]]
    pool += flat + [("reply", {"gas": a, "ok": True}) for a in scalars[:8]]
    for a, b in itertools.combinations(pool, 2):
        if memo_key(a) == memo_key(b):
            assert hash(memo_key(a)) == hash(memo_key(b))
            assert sha256_hex(a) == sha256_hex(b), (a, b)
    # Raw where that is exact (no allocation), tagged where it is not.
    votes = ("prepare", 3, 0, "digest")
    flags = (True, None, 7, "v")
    assert memo_key(votes) is votes and memo_key(flags) is flags
    assert memo_key((1, "x")) == memo_key((True, "x"))  # one encoding
    assert memo_key((1, "x")) != memo_key((1.0, "x"))  # two encodings
    # {1: "x"} and {"1": "x"} share an encoding but not a key (the flat one
    # is raw): a split, never a merge.
    assert memo_key({1: "x"}) != memo_key({"1": "x"})
    assert sha256_hex({1: "x"}) == sha256_hex({"1": "x"})
    assert memo_key({"a": 1, "b": 2.0}) == memo_key({"b": 2.0, "a": 1})  # insertion order
    assert memo_key({"k": 1}) != memo_key({"k": 1.0})
    assert memo_key(("reply", {"gas": 1})) != memo_key(("reply", {"gas": 1.0}))
    # The flat path: raw sorted items, look-alikes as the encoding has them.
    receipt = {"success": True, "gas_used": 21_000, "contract_address": None}
    assert memo_key(receipt) == tuple(sorted(receipt.items()))
    assert memo_key(receipt) == memo_key(dict(reversed(list(receipt.items()))))
    assert memo_key({"a": 1}) == memo_key({"a": True})  # one encoding
    assert memo_key({"a": 1}) != memo_key({"a": 1.0}) != memo_key({"a": True})
    assert memo_key({"a": 1}) != memo_key((("a", 1),)) != memo_key(("a", 1))
    # Values of unlike types under keys that collide as strings still sort.
    hash(memo_key({1: "x", "1": 2}))


def test_sha256_int_matches_hex():
    assert sha256_int("x") == int(sha256_hex("x"), 16)


def test_block_digest_depends_on_every_field():
    base = block_digest(1, 0, ["op1", "op2"])
    assert base != block_digest(2, 0, ["op1", "op2"])
    assert base != block_digest(1, 1, ["op1", "op2"])
    assert base != block_digest(1, 0, ["op1"])
    assert base == block_digest(1, 0, ["op1", "op2"])


def test_chain_digest_includes_previous_hash():
    first = chain_digest(1, 0, ["op"], "genesis")
    second = chain_digest(1, 0, ["op"], first)
    assert first != second
    assert chain_digest(1, 0, ["op"], "genesis") == first


def test_dict_hash_is_order_independent():
    assert sha256_hex({"a": 1, "b": 2}) == sha256_hex({"b": 2, "a": 1})


# ---------------------------------------------------------------------------
# Golden digests: the streaming flattener must frame bytes exactly as the
# pre-streaming implementation did (length-prefixed, depth-first), and
# sha256_int must keep returning the same integers it did via the old
# hex-string round-trip.
# ---------------------------------------------------------------------------


def test_golden_digest_empty():
    assert sha256_hex() == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    )


def test_golden_digest_scalars():
    assert sha256_hex("abc", 17, -4, 3.25, True, False, None, b"\x00\xffraw") == (
        "0430230261881f64161498c1c2d5724a7bfff49c73b19f429ddc0dfabdd831fd"
    )


def test_golden_digest_nested_containers():
    assert sha256_hex(
        ["a", ["b", 2], ("c", 3.0)], {"k": 1, 2: "two", "a": [1, {"x": None}]}
    ) == "1bd0004de014e3e5c596fc703a468fe911238d4b4fccf4057434738f1b016c01"


def test_golden_digest_int_bool_distinction():
    assert sha256_hex(0, 1, -1, True, False, 255, 256, -256) == (
        "edfc41a3c4bdebc05e56a8b6c64ef17a05f12720a80fad6c57d1b15953bc0e14"
    )


def test_golden_digest_deep_and_empty_containers():
    assert sha256_hex([[[["x"]]]], ((), ((),)), {"": {"": ""}}) == (
        "28aca7f73071fb250c788f176060448caa5af0c7104f2b3e3b11730c9b07998b"
    )


def test_golden_sha256_int_regression():
    # Exact integer the pre-streaming int(hexdigest, 16) implementation
    # produced for a representative chain-digest call.
    assert sha256_int("authkv-chain", "prev", 7, "root") == (
        48115919909589846349264707072521519451657129320696085408929787504014964615265
    )


def test_long_parts_beyond_interned_prefix_table():
    # Parts >= 1024 bytes take the non-interned length-prefix path; framing
    # must still match a one-byte-longer / one-byte-shorter payload uniquely.
    long_a = "a" * 5000
    assert sha256_hex(long_a) != sha256_hex("a" * 4999)
    assert sha256_hex([long_a, "b"]) != sha256_hex([long_a + "b"])


# ---------------------------------------------------------------------------
# Differential: the one-pass encoder against the materializing walk it
# replaced.  The bytes are the contract; the walk is kept here, verbatim, as
# the reference.
# ---------------------------------------------------------------------------


def _ref_encode_bool(value):
    return b"\x01" if value else b"\x00"


def _ref_encode_int(value):
    return value.to_bytes((value.bit_length() + 8) // 8 or 1, "big", signed=True)


def _ref_encode_float(value):
    return repr(value).encode("utf-8")


def _ref_encode_sequence(value):
    out = bytearray()
    for item in value:
        part = _ref_to_bytes(item)
        out += len(part).to_bytes(4, "big")
        out += part
    return bytes(out)


def _ref_encode_dict(value):
    return _ref_encode_sequence(sorted((str(k), _ref_to_bytes(v)) for k, v in value.items()))


_REF_ENCODERS = {
    bytes: bytes,
    bytearray: bytes,
    memoryview: bytes,
    str: lambda value: value.encode("utf-8"),
    bool: _ref_encode_bool,
    int: _ref_encode_int,
    float: _ref_encode_float,
    type(None): lambda value: b"\x00none",
    list: _ref_encode_sequence,
    tuple: _ref_encode_sequence,
    dict: _ref_encode_dict,
}


def _ref_to_bytes(value):
    encoder = _REF_ENCODERS.get(type(value))
    if encoder is not None:
        return encoder(value)
    if isinstance(value, (bytes, bytearray, memoryview)):
        return bytes(value)
    if isinstance(value, str):
        return value.encode("utf-8")
    if isinstance(value, bool):
        return _ref_encode_bool(value)
    if isinstance(value, int):
        return _ref_encode_int(value)
    if isinstance(value, float):
        return _ref_encode_float(value)
    if isinstance(value, (list, tuple)):
        return _ref_encode_sequence(value)
    if isinstance(value, dict):
        return _ref_encode_dict(value)
    return repr(value).encode("utf-8")


def _as_repr_leaves(value):
    """``value`` with every leaf whose type is not an exact builtin replaced
    by its ``repr``: the encoder has no isinstance chain (no subclass of a
    builtin reaches it in any run), so such a leaf encodes as its repr."""
    kind = type(value)
    if kind in (tuple, list):
        return kind(_as_repr_leaves(item) for item in value)
    if kind is dict:
        return {key: _as_repr_leaves(item) for key, item in value.items()}
    if kind in _REF_ENCODERS:
        return value
    return repr(value)


@dataclasses.dataclass(frozen=True)
class _Op:
    key: str
    value: int


class _Color(enum.IntEnum):
    RED = 1
    BLUE = 1024


class _Tag(str):
    pass


_EDGE_INTS = [-(2**63) - 1, -(2**63), -129, -128, -127, -1, 0, 1, 127, 128, 255, 256,
              1023, 1024, 2**63 - 1, 2**63]
_EDGE_STRS = ["", "a" * 1023, "a" * 1024, "é" * 512, "x" * 70_000]

_scalars = st.one_of(
    st.sampled_from(_EDGE_INTS),
    st.integers(),
    st.sampled_from(_EDGE_STRS),
    st.text(max_size=20),
    st.sampled_from([True, False, None, 0.0, -0.0, math.nan, math.inf, -math.inf]),
    st.floats(),
    st.binary(max_size=20),
    st.binary(max_size=20).map(bytearray),
    st.binary(max_size=20).map(memoryview),
    st.builds(_Op, st.text(max_size=5), st.integers(-3, 3)),
    st.sampled_from(list(_Color)),
    st.text(max_size=5).map(_Tag),
)
# Keys that collide under ``str`` (1 and "1", None and "None"), so the sort
# falls through to the encoded values.
_dict_keys = st.one_of(st.integers(-2, 2), st.integers(-2, 2).map(str),
                       st.sampled_from([None, "None", "a"]))
_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5).map(tuple),
        st.lists(children, max_size=5),
        st.dictionaries(_dict_keys, children, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_values, max_size=6).map(tuple))
def test_encoder_matches_the_reference_walk(parts):
    expected = _ref_encode_sequence(_as_repr_leaves(parts))
    assert hashing._canonical_bytes(parts) == expected


def test_encoder_table_edges_and_length_prefix_boundaries():
    """The edges of the prefixed-int table and of the interned length
    prefixes, one at a time and nested past the 1024-byte boundary."""
    for value in _EDGE_INTS + _EDGE_STRS + [True, 1, False, 0, None, -0.0, 0.0]:
        assert hashing._canonical_bytes((value,)) == _ref_encode_sequence((value,)), value
    for width in (1015, 1016, 1019, 1020, 1021):
        nested = (("a" * width,), ["b" * width, 7], {"k": "c" * width})
        assert hashing._canonical_bytes(nested) == _ref_encode_sequence(nested), width
    # True and 1 share an encoding, a float never does; so do a str subclass
    # and its repr, an IntEnum member and its repr.
    assert sha256_hex(True) == sha256_hex(1) != sha256_hex(1.0)
    assert sha256_hex(_Tag("a")) == sha256_hex("'a'") != sha256_hex("a")
    assert sha256_hex(_Color.RED) == sha256_hex(repr(_Color.RED))


def test_encoder_tables_stay_small():
    """Built at import in every process: a 66k-entry int table cost 7.4 MB of
    peak RSS, so each table stays under ~1.5k entries."""
    assert max(len(hashing._LEN4), len(hashing._SMALL_INTS), len(hashing._ATOMS)) <= 1536
