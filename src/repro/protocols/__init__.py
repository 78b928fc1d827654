"""Cluster construction and the registry of evaluated protocol variants."""

from repro.protocols.registry import PROTOCOLS, ProtocolSpec, get_protocol
from repro.protocols.cluster import Cluster, ClusterResult, build_cluster

__all__ = [
    "PROTOCOLS",
    "ProtocolSpec",
    "get_protocol",
    "Cluster",
    "ClusterResult",
    "build_cluster",
]
