"""Cryptography micro-benchmarks (Section III / VIII).

These measure the wall-clock speed of the *mock* primitives (they are fast by
construction — the realistic costs are charged to the simulated CPU through
``repro.crypto.costs``), and report the cost model itself so benchmark readers
can interpret the protocol-level numbers.  The structural comparison the
paper makes still holds for the mock implementation: share verification
dominates the collector's work.
"""

from __future__ import annotations

import pytest

from conftest import attach_rows
from repro.crypto.costs import DEFAULT_COSTS
from repro.crypto.hashing import sha256_hex, sha256_int
from repro.crypto.merkle import MerkleTree
from repro.crypto.threshold import ThresholdDealer
from repro.evm.contracts import encode_call, token_contract
from repro.evm.state import WorldState
from repro.evm.transactions import Transaction, apply_transaction

N_REPLICAS = 25          # f=8, c=0
SIGMA_THRESHOLD = 25
TAU_THRESHOLD = 17


@pytest.fixture(scope="module")
def tau_scheme():
    return ThresholdDealer(num_signers=N_REPLICAS, seed=1).deal("tau", TAU_THRESHOLD)


def test_threshold_share_sign(benchmark, tau_scheme):
    benchmark(tau_scheme.sign_share, 3, "digest")


def test_threshold_share_verify(benchmark, tau_scheme):
    share = tau_scheme.sign_share(3, "digest")
    assert benchmark(tau_scheme.verify_share, share)


def test_threshold_combine(benchmark, tau_scheme):
    shares = [tau_scheme.sign_share(i, "digest") for i in range(TAU_THRESHOLD)]
    combined = benchmark(tau_scheme.combine, shares)
    assert tau_scheme.verify(combined)


# Canonical-hash per-type fast paths (the streaming flattener dispatches on
# exact type; every protocol digest funnels through these encoders).
_HASH_PAYLOADS = {
    "str": ["chain-digest-tag", "previous-digest-hex" * 2, "merkle-root-hex"],
    "int": list(range(-8, 56)),
    "bytes": [b"\x00" * 32, b"payload" * 8],
    "mixed-scalars": ["tag", 17, -4, 3.25, True, False, None],
    "nested-seq": [["op", i, ("k", i)] for i in range(16)],
    "dict": [{"key": f"k{i}", "value": i, "meta": {"seq": i}} for i in range(8)],
}


@pytest.mark.parametrize("payload_type", sorted(_HASH_PAYLOADS))
def test_sha256_hex_per_type(benchmark, payload_type):
    payload = _HASH_PAYLOADS[payload_type]
    digest = benchmark(sha256_hex, *payload)
    assert digest == sha256_hex(*payload)


def test_sha256_int_chain_digest_shape(benchmark):
    value = benchmark(sha256_int, "authkv-chain", "prev" * 16, 7, "root" * 16)
    assert value == int(sha256_hex("authkv-chain", "prev" * 16, 7, "root" * 16), 16)


def test_merkle_proof_generation(benchmark):
    tree = MerkleTree([f"entry-{i}" for i in range(512)])
    proof = benchmark(tree.prove, 100)
    assert MerkleTree.verify(tree.root, "entry-100", proof)


def test_evm_token_transfer_throughput(benchmark):
    state = WorldState()
    alice = "0x" + "aa" * 20
    state.add_balance(alice, 10**9)
    address = apply_transaction(state, Transaction.create(alice, token_contract())).contract_address
    slot = int(alice, 16) & 0xFFFFFFFFFFFFFFFF
    apply_transaction(state, Transaction.call(alice, address, encode_call(1, slot, 10**9)))
    call = Transaction.call(alice, address, encode_call(2, 7, 1))

    benchmark(apply_transaction, state, call)


def test_report_cost_model(benchmark):
    """Not a timing benchmark per se: records the simulated cost model used by
    every protocol-level experiment, so the bench output is self-describing."""
    rows = [
        {"operation": name, "simulated_seconds": getattr(DEFAULT_COSTS, name)}
        for name in (
            "rsa_sign",
            "rsa_verify",
            "bls_sign_share",
            "bls_verify_combined",
            "bls_combine_per_share",
            "evm_base_execute",
        )
    ]
    benchmark.pedantic(lambda: DEFAULT_COSTS.combine_cost(64), rounds=1, iterations=1)
    attach_rows(benchmark, rows)
