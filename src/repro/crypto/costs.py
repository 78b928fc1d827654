"""Cryptographic cost model.

The mock group makes the Python-level math nearly free, so realistic costs are
charged to the simulated CPU instead.  Defaults approximate the figures for
the hardware class used in the paper (Intel Broadwell, 2.3 GHz): BLS BN-P254
sign/verify in the low hundreds of microseconds, pairing-based verification
around a millisecond, share combination dominated by ``k`` exponentiations,
RSA-2048 verify fast / sign slow, SHA256 and HMAC effectively free at the
message sizes involved.

The exact constants matter less than the *ratios*; the ablation benchmark
(`benchmarks/test_bench_crypto.py`) reports the model so experiments are
interpretable.

Assumption, optimistic combining: a collector files each threshold share
unchecked (``hash_op``), combines the first ``threshold`` and checks the
combined signature once (``combine_cost(k) + bls_verify_combined``).  Only
when that check fails, which takes a forged share, does it check shares one
by one (``bls_batch_verify_per_share`` each, every share at most once).
Whether the paper's implementation does exactly this cannot be checked from
the paper's text here; docs/benchmarks.md keeps the per-share rows.
Assumption too: a replica pays no check for a message it sent itself.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CryptoCosts:
    """Per-operation CPU costs in seconds."""

    hash_op: float = 1e-6
    rsa_sign: float = 800e-6
    rsa_verify: float = 30e-6
    bls_sign_share: float = 280e-6
    bls_verify_combined: float = 900e-6
    bls_combine_per_share: float = 120e-6
    # Assumption: one robust check of one threshold share; nothing is batched.
    # Paid only on a collector's fallback ("optimistic combining", above).
    bls_batch_verify_per_share: float = 250e-6
    merkle_proof_per_level: float = 2e-6
    evm_base_execute: float = 150e-6               # per-transaction EVM overhead
    evm_per_gas: float = 2e-9
    persist_per_byte: float = 5e-9                 # RocksDB-style WAL append

    def combine_cost(self, num_shares: int) -> float:
        """Cost of a Lagrange combine over ``num_shares`` shares."""
        return self.bls_combine_per_share * max(1, num_shares)


DEFAULT_COSTS = CryptoCosts()
