"""Shared fixtures for the test suite (helpers live in ``tests/helpers.py``)."""

from __future__ import annotations

import pytest

from helpers import clocks_trapped_in_runs
from repro.core.config import SBFTConfig
from repro.core.keys import TrustedSetup
from repro.sim.events import Simulator
from repro.sim.network import Network
from repro.sim.latency import lan_topology


@pytest.fixture(autouse=True, scope="session")
def no_clock_inside_a_run():
    """A run is a function of its seeds alone: a clock, entropy or
    global-``random`` read anywhere inside ``Simulator.run`` or
    ``Cluster.run`` fails the test that made it, at the reading line."""
    with clocks_trapped_in_runs():
        yield


@pytest.fixture
def sim() -> Simulator:
    return Simulator(seed=42)


@pytest.fixture
def network(sim) -> Network:
    return Network(sim, latency=lan_topology(16), seed=1)


@pytest.fixture
def small_config() -> SBFTConfig:
    """f=1, c=0 (n=4) with short timers for fast tests."""
    return SBFTConfig(
        f=1,
        c=0,
        batch_size=2,
        fast_path_timeout=0.05,
        batch_timeout=0.01,
        view_change_timeout=1.0,
        client_retry_timeout=1.5,
    )


@pytest.fixture
def redundant_config() -> SBFTConfig:
    """f=1, c=1 (n=6): the smallest configuration with redundant servers."""
    return SBFTConfig(
        f=1,
        c=1,
        batch_size=2,
        fast_path_timeout=0.05,
        batch_timeout=0.01,
        view_change_timeout=1.0,
        client_retry_timeout=1.5,
    )


@pytest.fixture
def setup(small_config) -> TrustedSetup:
    return TrustedSetup(small_config, seed=7)
