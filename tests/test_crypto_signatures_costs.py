"""Unit tests for plain signatures and the crypto cost model."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from helpers import make_request
from repro.core.messages import PrePrepare
from repro.core.runtime import block_reply_bodies
from repro.crypto import signatures
from repro.crypto.costs import DEFAULT_COSTS
from repro.crypto.hashing import provenance_key, sha256_hex
from repro.crypto.signatures import Signature, generate_keypair
from repro.errors import CryptoError


def test_sign_verify_roundtrip():
    key = generate_keypair("replica-1", seed=4)
    signature = key.sign(("hello", 1))
    assert key.verify_key.verify(("hello", 1), signature)
    assert not key.verify_key.verify(("hello", 2), signature)


def test_signature_bound_to_signer():
    key_a = generate_keypair("a")
    key_b = generate_keypair("b")
    signature = key_a.sign("m")
    assert not key_b.verify_key.verify("m", signature)


def test_keypair_deterministic_per_seed():
    assert generate_keypair("x", 1).key_id == generate_keypair("x", 1).key_id
    assert generate_keypair("x", 1).key_id != generate_keypair("x", 2).key_id


def test_empty_signer_rejected():
    with pytest.raises(CryptoError):
        generate_keypair("")


def test_signature_size_matches_rsa2048():
    key = generate_keypair("client-1")
    assert key.sign("m").size_bytes == 256


# ----------------------------------------------------------------------
# Signature provenance: the fast path may only ever save a recomputation
# ----------------------------------------------------------------------
@pytest.fixture
def hash_calls(monkeypatch):
    """Counts the SHA-256 passes made by the signature module, by the domain
    tag its key prefix starts with."""
    calls = []
    real = signatures.sha256

    def counting(data):
        calls.append(data[4:4 + int.from_bytes(data[:4], "big")].decode())
        return real(data)

    monkeypatch.setattr(signatures, "sha256", counting)
    return calls


MESSAGE = ("prepare", 7, 0, "d" * 64)


def test_verifying_an_honest_signature_never_hashes(hash_calls):
    key = generate_keypair("replica-1", seed=4)
    signature = key.sign(MESSAGE)
    verify_key = key.verify_key
    del hash_calls[:]
    # Every recipient rebuilds the message tuple from the fields it received.
    assert all(verify_key.verify(("prepare", 7, 0, "d" * 64), signature) for _ in range(49))
    assert hash_calls == []


def _honest_digest(key, message):
    """The reference digest, as ``sign`` computed it before keys kept their
    encoded prefix."""
    return sha256_hex("pk-sign", key.key_id, message)


@pytest.mark.parametrize(
    "case",
    ["direct", "replace-digest", "replace-signer", "other-key", "other-message", "other-seed"],
)
def test_signatures_without_matching_provenance_are_recomputed(case, hash_calls):
    """Each of these must take the recompute path (one hash per verify) and
    return what plain recompute-and-compare returns."""
    key = generate_keypair("replica-1", seed=4)
    other = generate_keypair("replica-2", seed=4)
    signed = key.sign(MESSAGE)
    verify_key, message, expected = key.verify_key, MESSAGE, False
    if case == "direct":  # same bytes, built without sign(): valid, but no stash
        signature = Signature(signer=signed.signer, digest=signed.digest)
        expected = True
    elif case == "replace-digest":
        signature = dataclasses.replace(signed, digest=_honest_digest(key, ("prepare", 8, 0, "x")))
    elif case == "replace-signer":  # re-labelled as replica-2's: checked against that key
        signature = dataclasses.replace(signed, signer="replica-2")
        verify_key = other.verify_key
    elif case == "other-key":  # claims replica-1's name, signed with replica-2's secret
        signature = Signature(signer="replica-1", digest=_honest_digest(other, MESSAGE))
    elif case == "other-message":
        signature, message = signed, ("prepare", 7, 0, "e" * 64)
    else:  # same signer name from another deployment's trusted setup
        signature, verify_key = signed, generate_keypair("replica-1", seed=5).verify_key
    assert signature._signed is None or case in ("other-message", "other-seed")
    del hash_calls[:]
    assert verify_key.verify(message, signature) is expected
    assert hash_calls == ["pk-sign"]


def test_replace_drops_provenance_but_keeps_validity(hash_calls):
    key = generate_keypair("replica-1")
    copy = dataclasses.replace(key.sign(MESSAGE))
    assert copy == key.sign(MESSAGE) and copy._signed is None and copy._signed_by is None
    with pytest.raises(ValueError):
        dataclasses.replace(copy, _signed=MESSAGE)
    with pytest.raises(ValueError):
        dataclasses.replace(copy, _signed_by=key.key_id)
    del hash_calls[:]
    assert key.verify_key.verify(MESSAGE, copy)
    assert hash_calls == ["pk-sign"]


@pytest.mark.parametrize("signed_value, asked_value", [(1, 1.0), (1.0, 1), (1, True), (False, 0)])
def test_provenance_answers_exactly_as_the_canonical_encoding_would(
    signed_value, asked_value, hash_calls
):
    """``1 == True == 1.0`` in Python.  The canonical encoding tells 1 from
    1.0 but writes True as 1, and so does the provenance record: the verdict
    is always the recomputed one, and a rejection is never read off the
    stash."""
    key = generate_keypair("replica-1")
    for wrap in (lambda v: ("reply", 0, 1, v), lambda v: ("reply", 0, 1, (v, "x"))):
        signature = key.sign(wrap(signed_value))
        del hash_calls[:]
        assert key.verify_key.verify(wrap(signed_value), signature)
        assert hash_calls == []
        recomputed = signature.digest == _honest_digest(key, wrap(asked_value))
        assert recomputed is (type(asked_value) is not float and type(signed_value) is not float)
        assert key.verify_key.verify(wrap(asked_value), signature) is recomputed
        assert recomputed or hash_calls == ["pk-sign"]


def test_unhashable_message_parts_carry_no_provenance(hash_calls):
    """Ledger receipts are dicts: ``{"gas": 1} == {"gas": 1.0}``, so such a
    message is never stashed and every verify recomputes."""
    key = generate_keypair("replica-1")
    receipt = {"status": True, "gas": 21000, "logs": []}
    message = ("reply", 0, 1, (receipt,))
    signature = key.sign(message)
    assert signature._signed is None
    del hash_calls[:]
    assert key.verify_key.verify(("reply", 0, 1, (dict(receipt),)), signature)
    assert not key.verify_key.verify(("reply", 0, 1, ({**receipt, "gas": 21000.0},)), signature)
    assert hash_calls == ["pk-sign", "pk-sign"]


def test_signing_without_provenance_keeps_nothing_and_verifies_by_recompute(hash_calls):
    """The client's request signatures, which nobody verifies, opt out so the
    signed tuple is not kept alive; the signature itself is the same."""
    key = generate_keypair("client-0")
    signature = key.sign(MESSAGE, provenance=False)
    assert signature == key.sign(MESSAGE)
    assert signature._signed is None and signature._signed_by is None
    del hash_calls[:]
    assert key.verify_key.verify(MESSAGE, signature)
    assert hash_calls == ["pk-sign"]


# ----------------------------------------------------------------------
# The key prefix: one pass over prefix + body is the reference digest
# ----------------------------------------------------------------------
_SCALARS = st.one_of(
    st.text(max_size=8), st.integers(-(2**70), 2**70), st.floats(allow_nan=False),
    st.booleans(), st.none(), st.binary(max_size=8),
)
_MESSAGES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4).map(tuple),
        st.lists(inner, max_size=4),
        st.dictionaries(st.one_of(st.text(max_size=4), st.integers(0, 9)), inner, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(message=_MESSAGES, signer=st.text(min_size=1, max_size=6), seed=st.integers(0, 3))
def test_signing_digest_equals_the_reference(message, signer, seed):
    key = generate_keypair(signer, seed)
    signature = key.sign(message)
    assert signature.digest == _honest_digest(key, message)
    assert key.sign(message, encoded=signatures.encode(message)).digest == signature.digest
    bare = Signature(signer=signature.signer, digest=signature.digest)  # verified by recompute
    assert key.verify_key.verify(message, signature) and key.verify_key.verify(message, bare)


@settings(max_examples=50, deadline=None)
@given(values=st.lists(st.lists(_MESSAGES, max_size=3).map(tuple), min_size=1, max_size=4))
def test_reply_bodies_from_the_block_stash_sign_to_the_reference_digest(values):
    values = tuple(values)
    requests = tuple(make_request(timestamp) for timestamp in range(1, len(values) + 1))
    block = PrePrepare(sequence=1, view=0, requests=requests, digest="d")
    bodies = block_reply_bodies(block, values, "state")
    assert block_reply_bodies(block, values, "state") is bodies  # stashed for the peers
    for replica in range(3):
        key = generate_keypair(f"replica-{replica}")
        for request, request_values, body in zip(requests, values, bodies):
            message = ("reply", request.client_id, request.timestamp, request_values)
            signature = key.sign(message, encoded=body)
            assert signature.digest == _honest_digest(key, message)
            assert signature._signed == provenance_key(message)
            assert key.verify_key.verify(message, signature)
    # Another state digest misses the guard and encodes its own values.
    other = tuple(request_values + ("x",) for request_values in values)
    assert block_reply_bodies(block, other, "other") == tuple(map(signatures.encode, (
        ("reply", r.client_id, r.timestamp, v) for r, v in zip(requests, other))))


def test_provenance_is_invisible_to_equality_hash_and_repr():
    key = generate_keypair("replica-1")
    signed = key.sign(MESSAGE)
    bare = Signature(signer=signed.signer, digest=signed.digest)
    assert signed == bare and hash(signed) == hash(bare) and repr(signed) == repr(bare)
    assert signed.digest == _honest_digest(key, MESSAGE)  # what is signed did not change


def test_cost_helpers_scale_with_share_count():
    costs = DEFAULT_COSTS
    assert costs.combine_cost(10) == pytest.approx(10 * costs.bls_combine_per_share)
    assert costs.combine_cost(0) == pytest.approx(costs.bls_combine_per_share)


def test_cost_model_reflects_paper_ratios():
    """BLS signatures are slower to verify than RSA and cheaper to sign."""
    costs = DEFAULT_COSTS
    assert costs.bls_verify_combined > costs.rsa_verify
    assert costs.rsa_sign > costs.bls_sign_share
