"""Trusted setup: threshold schemes and PKI keys for one deployment.

Section III assumes a PKI between clients and replicas plus a threshold-key
setup giving each replica its σ, τ and π key shares.  :class:`TrustedSetup`
plays the dealer: it creates the three :class:`~repro.crypto.threshold.ThresholdScheme`
instances with the thresholds from the configuration and a signing key pair
for every replica and client.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.config import SBFTConfig
from repro.crypto.signatures import SigningKey, VerifyKey, generate_keypair
from repro.crypto.threshold import ThresholdDealer, ThresholdScheme


@dataclass
class ReplicaKeys:
    """Everything one replica needs to sign and verify."""

    replica_id: int
    signing_key: SigningKey
    sigma: ThresholdScheme
    tau: ThresholdScheme
    pi: ThresholdScheme


class TrustedSetup:
    """Dealer for a deployment: threshold schemes + replica/client PKI."""

    def __init__(self, config: SBFTConfig, seed: int = 0):
        self.config = config
        self.seed = seed
        dealer = ThresholdDealer(config.n, seed=seed)
        self.sigma = dealer.deal("sigma", config.sigma_threshold)
        self.tau = dealer.deal("tau", config.tau_threshold)
        self.pi = dealer.deal("pi", config.pi_threshold)
        self._replica_keys: Dict[int, SigningKey] = {
            i: generate_keypair(f"replica-{i}", seed) for i in range(config.n)
        }
        self._client_keys: Dict[int, SigningKey] = {}

    # ------------------------------------------------------------------
    # Replicas
    # ------------------------------------------------------------------
    def replica_keys(self, replica_id: int) -> ReplicaKeys:
        return ReplicaKeys(
            replica_id=replica_id,
            signing_key=self._replica_keys[replica_id],
            sigma=self.sigma,
            tau=self.tau,
            pi=self.pi,
        )

    def replica_verify_key(self, replica_id: int) -> VerifyKey:
        return self._replica_keys[replica_id].verify_key

    # ------------------------------------------------------------------
    # Clients
    # ------------------------------------------------------------------
    def client_signing_key(self, client_id: int) -> SigningKey:
        if client_id not in self._client_keys:
            self._client_keys[client_id] = generate_keypair(f"client-{client_id}", self.seed)
        return self._client_keys[client_id]
