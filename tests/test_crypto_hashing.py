"""Unit tests for digest helpers."""

import itertools

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
    assert memo_key({1: "x"}) == memo_key({"1": "x"})  # one encoding
    assert memo_key({"a": 1, "b": 2.0}) == memo_key({"b": 2.0, "a": 1})  # insertion order
    assert memo_key({"k": 1}) != memo_key({"k": 1.0})
    assert memo_key(("reply", {"gas": 1})) != memo_key(("reply", {"gas": 1.0}))
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
