"""SBFT: a Scalable and Decentralized Trust Infrastructure - Python reproduction.

This package reproduces the SBFT protocol (Golan Gueta et al., DSN 2019) and
every substrate it depends on:

* :mod:`repro.sim` - a deterministic discrete-event simulator with WAN latency
  models, per-node CPU cost accounting, message loss and fault injection.
* :mod:`repro.crypto` - threshold BLS signatures over a structurally faithful
  mock pairing group, Merkle trees and digest utilities.
* :mod:`repro.services` - the generic replicated-service interface, an
  authenticated (Merkle) key-value store and a smart-contract ledger.
* :mod:`repro.evm` - a from-scratch mini-EVM used as the smart-contract engine.
* :mod:`repro.core` - the SBFT replication protocol: fast path, linear-PBFT
  fallback, commit/execution collectors, dual-mode view change, checkpoints.
* :mod:`repro.pbft` - the scale-optimized PBFT baseline the paper compares to.
* :mod:`repro.protocols` - cluster builder and the registry of the five
  protocol variants evaluated in the paper.
* :mod:`repro.experiments` - the Section IX throughput grid, fault sweep and view-change study.

Quickstart::

    from repro.protocols import build_cluster
    from repro.workloads import KVWorkload

    cluster = build_cluster("sbft-c0", f=1, num_clients=4, topology="lan")
    result = cluster.run(KVWorkload(requests_per_client=50), max_sim_time=20.0)
    print(result.throughput, result.mean_latency)
"""

from repro.version import __version__

__all__ = ["__version__"]
