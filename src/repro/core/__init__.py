"""The SBFT replication protocol (the paper's primary contribution).

Modules:

* :mod:`repro.core.config` — ``n = 3f + 2c + 1`` configuration and the three
  signature thresholds (σ, τ, π).
* :mod:`repro.core.messages` — every protocol message of Section V.
* :mod:`repro.core.roles` — primary rotation and C-/E-collector selection.
* :mod:`repro.core.keys` — trusted setup: threshold schemes and PKI keys.
* :mod:`repro.core.log` — per-sequence slot bookkeeping.
* :mod:`repro.core.runtime` — the replica runtime shared with the PBFT
  baseline: client intake, batching, execution, state transfer, timers.
* :mod:`repro.core.replica` — the SBFT agreement protocol on top of it: fast
  path, linear-PBFT fallback, acknowledgement, checkpointing, view change.
* :mod:`repro.core.viewchange` — the dual-mode view-change safe-value logic.
* :mod:`repro.core.client` — the single-message-acknowledgement client.
"""

from repro.core.config import SBFTConfig
from repro.core.keys import TrustedSetup, ReplicaKeys
from repro.core.replica import SBFTReplica
from repro.core.client import SBFTClient
from repro.core.roles import primary_of_view, commit_collectors, execution_collectors

__all__ = [
    "SBFTConfig",
    "TrustedSetup",
    "ReplicaKeys",
    "SBFTReplica",
    "SBFTClient",
    "primary_of_view",
    "commit_collectors",
    "execution_collectors",
]
