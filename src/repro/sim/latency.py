"""WAN latency models and the topologies used in the paper's evaluation.

The paper evaluates two deployments (Section IX):

* **Continent-scale WAN** — replicas and clients spread over 5 regions on the
  same continent, two availability zones per region.
* **World-scale WAN** — 15 regions spread over all continents.

Absolute one-way delays are not reported in the paper, so we use publicly
typical inter-datacenter figures: ~1 ms within an availability zone, ~2 ms
between zones of the same region, 10–40 ms between regions of one continent
and 40–150 ms between continents.  The shapes in Figures 2 and 3 depend on the
*relative* cost of message rounds, which these figures preserve.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.errors import ConfigurationError


class LatencyModel:
    """Interface: one-way network delay between two nodes, in seconds."""

    def delay(self, src: int, dst: int, rng: random.Random) -> float:
        raise NotImplementedError

    def delays_from(self, src: int, dsts: Sequence[int], rng: random.Random) -> list[float]:
        """Vectorized :meth:`delay` for a broadcast fan-out.

        Must draw from ``rng`` exactly as ``[delay(src, d, rng) for d in
        dsts]`` would — same draws, same per-destination order — so that
        bulk fan-out keeps fixed-seed runs byte-identical to per-message
        sends.  Subclasses override this to hoist per-source work out of
        the per-destination loop.
        """
        delay = self.delay
        return [delay(src, dst, rng) for dst in dsts]


class UniformLatency(LatencyModel):
    """Every pair of nodes sees the same base delay plus uniform jitter."""

    def __init__(self, base: float = 0.001, jitter: float = 0.0002):
        if base < 0 or jitter < 0:
            raise ConfigurationError("latency and jitter must be non-negative")
        self.base = base
        self.jitter = jitter

    def delay(self, src: int, dst: int, rng: random.Random) -> float:
        if src == dst:
            return 0.0
        return self.base + self.jitter * rng.random()

    def delays_from(self, src: int, dsts: Sequence[int], rng: random.Random) -> list[float]:
        base = self.base
        jitter = self.jitter
        draw = rng.random
        return [0.0 if dst == src else base + jitter * draw() for dst in dsts]


class RegionLatency(LatencyModel):
    """Region-based latency: nodes are assigned to regions; a symmetric
    region-to-region matrix gives the base one-way delay.

    Parameters
    ----------
    assignment:
        ``assignment[node_id]`` is the region index of that node.  Nodes not in
        the list (e.g. clients created later) are assigned round-robin.
    matrix:
        ``matrix[i][j]`` is the base one-way delay in seconds between regions
        ``i`` and ``j``.
    jitter_fraction:
        Uniform jitter as a fraction of the base delay.
    """

    def __init__(
        self,
        assignment: Sequence[int],
        matrix: Sequence[Sequence[float]],
        jitter_fraction: float = 0.1,
        intra_node_delay: float = 0.0005,
    ):
        self.num_regions = len(matrix)
        for row in matrix:
            if len(row) != self.num_regions:
                raise ConfigurationError("latency matrix must be square")
        if any(r < 0 or r >= self.num_regions for r in assignment):
            raise ConfigurationError("region assignment out of range")
        self.assignment = list(assignment)
        self.matrix = [list(row) for row in matrix]
        self.jitter_fraction = jitter_fraction
        self.intra_node_delay = intra_node_delay

    # ``j * rng.random()`` is ``rng.uniform(0.0, j)`` float for float and draw
    # for draw (``0.0 + (j - 0.0) * random()``), minus a Python frame.
    def delay(self, src: int, dst: int, rng: random.Random) -> float:
        if src == dst:
            return 0.0
        assignment, known, regions = self.assignment, len(self.assignment), self.num_regions
        row = self.matrix[assignment[src] if src < known else src % regions]
        base = row[assignment[dst] if dst < known else dst % regions]
        if base <= 0.0:
            base = self.intra_node_delay
        return base * (1.0 + self.jitter_fraction * rng.random())

    def delays_from(self, src: int, dsts: Sequence[int], rng: random.Random) -> list[float]:
        # One row lookup per fan-out, the region lookup inlined per destination;
        # the RNG draw order matches delay().
        assignment, known, regions = self.assignment, len(self.assignment), self.num_regions
        row = self.matrix[assignment[src] if src < known else src % regions]
        intra = self.intra_node_delay
        jitter_fraction = self.jitter_fraction
        draw = rng.random
        delays = []
        append = delays.append
        for dst in dsts:
            if dst == src:
                append(0.0)
                continue
            base = row[assignment[dst] if dst < known else dst % regions]
            if base <= 0.0:
                base = intra
            append(base * (1.0 + jitter_fraction * draw()))
        return delays


def _ring_matrix(num_regions: int, min_delay: float, max_delay: float) -> list[list[float]]:
    """Build a symmetric region matrix where delay grows with ring distance.

    This approximates geography: nearby regions are cheap, antipodal regions
    are expensive.
    """
    matrix = [[0.0] * num_regions for _ in range(num_regions)]
    max_distance = num_regions // 2 or 1
    for i in range(num_regions):
        for j in range(num_regions):
            if i == j:
                continue
            distance = min(abs(i - j), num_regions - abs(i - j))
            frac = distance / max_distance
            matrix[i][j] = min_delay + frac * (max_delay - min_delay)
    return matrix


def _round_robin_assignment(num_nodes: int, num_regions: int) -> list[int]:
    return [i % num_regions for i in range(num_nodes)]


def lan_topology(num_nodes: int, base: float = 0.0005, jitter: float = 0.0001) -> LatencyModel:
    """Single-datacenter topology (used for unit tests and micro-benchmarks)."""
    return UniformLatency(base=base, jitter=jitter)


def continent_wan_topology(
    num_nodes: int,
    num_regions: int = 5,
    min_delay: float = 0.010,
    max_delay: float = 0.040,
    jitter_fraction: float = 0.1,
) -> LatencyModel:
    """The paper's continent-scale WAN: 5 regions, 10–40 ms one-way delays."""
    matrix = _ring_matrix(num_regions, min_delay, max_delay)
    assignment = _round_robin_assignment(num_nodes, num_regions)
    return RegionLatency(assignment, matrix, jitter_fraction=jitter_fraction)


def world_wan_topology(
    num_nodes: int,
    num_regions: int = 15,
    min_delay: float = 0.040,
    max_delay: float = 0.150,
    jitter_fraction: float = 0.15,
) -> LatencyModel:
    """The paper's world-scale WAN: 15 regions, 40–150 ms one-way delays."""
    matrix = _ring_matrix(num_regions, min_delay, max_delay)
    assignment = _round_robin_assignment(num_nodes, num_regions)
    return RegionLatency(assignment, matrix, jitter_fraction=jitter_fraction)


_TOPOLOGIES = {
    "lan": lan_topology,
    "continent": continent_wan_topology,
    "world": world_wan_topology,
}


def make_topology(name: str, num_nodes: int) -> LatencyModel:
    """Build a named topology (``lan``, ``continent`` or ``world``)."""
    try:
        factory = _TOPOLOGIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown topology {name!r}; expected one of {sorted(_TOPOLOGIES)}"
        ) from None
    return factory(num_nodes)
