"""Unit tests for latency models and topologies."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.sanitizer import CountingRandom
from repro.errors import ConfigurationError
from repro.sim.latency import (
    RegionLatency,
    UniformLatency,
    continent_wan_topology,
    lan_topology,
    make_topology,
    world_wan_topology,
)


@pytest.fixture
def rng():
    return random.Random(0)


def test_uniform_latency_self_delay_zero(rng):
    model = UniformLatency(base=0.01, jitter=0.0)
    assert model.delay(3, 3, rng) == 0.0
    assert model.delay(0, 1, rng) == pytest.approx(0.01)


def test_uniform_latency_jitter_within_bounds(rng):
    model = UniformLatency(base=0.01, jitter=0.005)
    for _ in range(100):
        delay = model.delay(0, 1, rng)
        assert 0.01 <= delay <= 0.015


def test_uniform_latency_rejects_negative():
    with pytest.raises(ConfigurationError):
        UniformLatency(base=-1)


def test_region_latency_uses_matrix(rng):
    matrix = [[0.0, 0.05], [0.05, 0.0]]
    model = RegionLatency(assignment=[0, 0, 1, 1], matrix=matrix, jitter_fraction=0.0)
    assert model.delay(0, 2, rng) == pytest.approx(0.05)
    # Same-region uses the small intra-region delay, not zero.
    assert 0 < model.delay(0, 1, rng) <= 0.001


def test_region_latency_rejects_bad_config():
    with pytest.raises(ConfigurationError):
        RegionLatency(assignment=[0, 5], matrix=[[0.0, 0.01], [0.01, 0.0]])
    with pytest.raises(ConfigurationError):
        RegionLatency(assignment=[0], matrix=[[0.0, 0.01]])


def test_region_assignment_round_robin_for_unknown_nodes(rng):
    matrix = [[0.0, 0.05], [0.05, 0.0]]
    model = RegionLatency(assignment=[0, 1], matrix=matrix)
    # Node 7 is outside the assignment list; it falls back to id % regions = 1.
    assert 0.05 <= model.delay(7, 0, rng) <= 0.05 * 1.1
    assert model.delay(7, 1, rng) <= model.intra_node_delay * 1.1


def test_continent_topology_is_slower_than_lan(rng):
    lan = lan_topology(10)
    continent = continent_wan_topology(10)
    # Nodes 0 and 2 are in different regions of the 5-region continent layout.
    lan_delay = lan.delay(0, 2, rng)
    continent_delay = continent.delay(0, 2, rng)
    assert continent_delay > lan_delay


def test_world_topology_is_slower_than_continent(rng):
    continent = continent_wan_topology(30)
    world = world_wan_topology(30)
    # Compare cross-region pairs (0 and 7 are in different regions for both).
    continent_delay = continent.delay(0, 7, rng)
    world_delay = world.delay(0, 7, rng)
    assert world_delay > continent_delay


def test_make_topology_dispatch():
    assert isinstance(make_topology("lan", 4), UniformLatency)
    assert isinstance(make_topology("continent", 4), RegionLatency)
    assert isinstance(make_topology("world", 4), RegionLatency)
    with pytest.raises(ConfigurationError):
        make_topology("mars", 4)


def test_latency_symmetry(rng):
    model = continent_wan_topology(20, jitter_fraction=0.0)
    for src, dst in [(0, 3), (1, 7), (2, 13)]:
        assert model.delay(src, dst, rng) == pytest.approx(model.delay(dst, src, rng))


# ----------------------------------------------------------------------
# Differential: jitter drawn as ``j * rng.random()`` is ``rng.uniform``'s
# ----------------------------------------------------------------------
def _region_of(model, node):
    if node < len(model.assignment):
        return model.assignment[node]
    return node % model.num_regions


def _reference_delay(model, src, dst, rng):
    """The reference: ``delay`` of both models written with ``rng.uniform``
    and a region lookup, as it was before the draws were inlined."""
    if isinstance(model, UniformLatency):
        if src == dst:
            return 0.0
        return model.base + rng.uniform(0.0, model.jitter)
    if src == dst:
        return 0.0
    base = model.matrix[_region_of(model, src)][_region_of(model, dst)]
    if base <= 0.0:
        base = model.intra_node_delay
    return base * (1.0 + rng.uniform(0.0, model.jitter_fraction))


_delays = st.one_of(st.just(0.0), st.floats(0.0, 0.2, allow_subnormal=False))
_fractions = st.floats(0.0, 0.5, allow_subnormal=False)


@st.composite
def _models(draw):
    if draw(st.booleans()):
        return UniformLatency(base=draw(_delays), jitter=draw(_fractions))
    regions = draw(st.integers(1, 6))
    matrix = [[draw(_delays) for _ in range(regions)] for _ in range(regions)]
    # Shorter than the node ids drawn below, so the modulo path is taken.
    assignment = draw(st.lists(st.integers(0, regions - 1), max_size=12))
    return RegionLatency(assignment, matrix, jitter_fraction=draw(_fractions),
                         intra_node_delay=draw(_delays))


@settings(max_examples=300, deadline=None)
@given(model=_models(), src=st.integers(0, 20),
       dsts=st.lists(st.integers(0, 20), max_size=30), seed=st.integers(0, 2**32 - 1))
def test_delay_and_delays_from_match_the_uniform_formula_float_for_float(model, src, dsts, seed):
    """Same floats (compared by ``float.hex``) and the same number of draws
    as ``rng.uniform(0.0, j)``, for ``delay`` on every pair and for
    ``delays_from`` over the fan-out, ``src`` included."""
    dsts = dsts + [src]
    reference_rng, rng = CountingRandom(seed), CountingRandom(seed)
    expected = [_reference_delay(model, src, dst, reference_rng) for dst in dsts]
    one_by_one = [model.delay(src, dst, rng) for dst in dsts]
    assert [x.hex() for x in one_by_one] == [x.hex() for x in expected]
    assert rng.draws == reference_rng.draws == len([d for d in dsts if d != src])

    reference_rng, rng = CountingRandom(seed), CountingRandom(seed)
    expected = [_reference_delay(model, src, dst, reference_rng) for dst in dsts]
    fanned_out = model.delays_from(src, dsts, rng)
    assert [x.hex() for x in fanned_out] == [x.hex() for x in expected]
    assert rng.draws == reference_rng.draws
