"""Unit tests for the SBFT configuration, role selection, keys and slot log."""

import pytest

from repro.core.config import SBFTConfig
from repro.core.keys import TrustedSetup
from repro.core.log import ReplicaLog, SlotState
from repro.core.roles import commit_collectors, execution_collectors, primary_of_view
from repro.errors import ConfigurationError


# ----------------------------------------------------------------------
# Configuration (Section II sizes)
# ----------------------------------------------------------------------
def test_replica_count_formula():
    config = SBFTConfig(f=64, c=8)
    assert config.n == 3 * 64 + 2 * 8 + 1 == 209
    assert config.sigma_threshold == 3 * 64 + 8 + 1
    assert config.tau_threshold == 2 * 64 + 8 + 1
    assert config.pi_threshold == 65
    assert config.view_change_quorum == 2 * 64 + 2 * 8 + 1
    assert config.pbft_quorum == 2 * 64 + 2 * 8 + 1


def test_paper_deployment_sizes():
    assert SBFTConfig(f=64, c=0).n == 193
    assert SBFTConfig(f=1, c=0).n == 4


def test_config_validation():
    with pytest.raises(ConfigurationError):
        SBFTConfig(f=-1)
    with pytest.raises(ConfigurationError):
        SBFTConfig(f=0, c=0)
    with pytest.raises(ConfigurationError):
        SBFTConfig(f=1, batch_size=0)
    with pytest.raises(ConfigurationError):
        SBFTConfig(f=1, window=2)


@pytest.mark.parametrize("field, value", [
    ("checkpoint_interval", 0), ("checkpoint_interval", -4), ("batch_timeout", -0.01),
    ("batch_timeout", 0.0), ("fast_path_timeout", 0.0), ("fast_path_timeout", -0.5),
    ("view_change_timeout", 0.0), ("view_change_timeout", -1.0),
    ("client_retry_timeout", 0.0), ("client_retry_timeout", -2.0),
])
def test_config_rejects_a_checkpoint_interval_or_timer_that_cannot_run(field, value):
    """A zero checkpoint interval divides by zero at the first executed block
    and a timer <= 0 fails mid-run, so the config rejects both when built."""
    with pytest.raises(ConfigurationError):
        SBFTConfig(f=1, **{field: value})


def test_collectors_per_slot_defaults_to_c_plus_one():
    assert SBFTConfig(f=4, c=0).collectors_per_slot == 1
    assert SBFTConfig(f=4, c=3).collectors_per_slot == 4


def test_describe_mentions_active_ingredients():
    text = SBFTConfig(f=2, c=1).describe()
    assert "fast-path" in text and "c=1" in text


def test_checkpoint_and_active_window_defaults():
    config = SBFTConfig(f=1, window=256)
    assert config.checkpoint_every == 128
    assert config.active_window == 64
    assert SBFTConfig(f=1, checkpoint_interval=10).checkpoint_every == 10


# ----------------------------------------------------------------------
# Roles (Section V-B)
# ----------------------------------------------------------------------
def test_primary_rotates_round_robin():
    assert primary_of_view(0, 4) == 0
    assert primary_of_view(5, 4) == 1
    assert primary_of_view(8, 4) == 0


def test_commit_collectors_include_primary_last():
    group = commit_collectors(sequence=3, view=0, n=7, count=3, include_primary_last=True)
    assert group[-1] == primary_of_view(0, 7)
    assert len(group) == 3
    assert len(set(group)) == 3


def test_commit_collectors_without_primary():
    group = commit_collectors(sequence=3, view=0, n=7, count=3, include_primary_last=False)
    assert primary_of_view(0, 7) not in group


def test_execution_collectors_exclude_primary():
    for sequence in range(20):
        group = execution_collectors(sequence, view=0, n=7, count=2)
        assert primary_of_view(0, 7) not in group
        assert len(group) == 2


def test_collector_selection_is_deterministic_and_rotates():
    a = execution_collectors(5, 0, 10, 2)
    b = execution_collectors(5, 0, 10, 2)
    assert a == b
    groups = {tuple(execution_collectors(s, 0, 10, 2)) for s in range(30)}
    assert len(groups) > 1  # load is spread across slots


def test_collector_load_is_balanced_across_replicas():
    counts = {r: 0 for r in range(10)}
    for sequence in range(200):
        for collector in execution_collectors(sequence, 0, 10, 2):
            counts[collector] += 1
    busiest = max(counts.values())
    idlest = min(v for r, v in counts.items() if r != 0)  # replica 0 is the excluded primary
    assert busiest <= 3 * max(1, idlest)


# ----------------------------------------------------------------------
# Trusted setup
# ----------------------------------------------------------------------
def test_trusted_setup_schemes_match_config_thresholds():
    config = SBFTConfig(f=2, c=1)
    setup = TrustedSetup(config, seed=1)
    assert setup.sigma.threshold == config.sigma_threshold
    assert setup.tau.threshold == config.tau_threshold
    assert setup.pi.threshold == config.pi_threshold
    keys = setup.replica_keys(3)
    share = keys.sigma.sign_share(3, "digest")
    assert setup.sigma.verify_share(share)


def test_trusted_setup_client_keys_are_stable():
    setup = TrustedSetup(SBFTConfig(f=1), seed=1)
    assert setup.client_signing_key(4) is setup.client_signing_key(4)
    signature = setup.client_signing_key(4).sign("m")
    assert setup.client_signing_key(4).verify_key.verify("m", signature)


# ----------------------------------------------------------------------
# Replica log
# ----------------------------------------------------------------------
def test_log_slot_creation_and_peek():
    log = ReplicaLog(16, SlotState)
    assert log.peek(3) is None
    slot = log.slot(3)
    assert log.peek(3) is slot
    assert [slot.sequence for slot in log.slots()] == [3]


def test_log_window_check():
    log = ReplicaLog(16, SlotState)
    assert log.in_window(1, last_stable=0)
    assert log.in_window(16, last_stable=0)
    assert not log.in_window(17, last_stable=0)
    assert not log.in_window(0, last_stable=0)


def test_log_garbage_collection():
    log = ReplicaLog(8, SlotState)
    for sequence in range(1, 11):
        log.slot(sequence)
    removed = log.garbage_collect(stable_sequence=5)
    assert removed == 5
    assert [slot.sequence for slot in log.slots()] == [6, 7, 8, 9, 10]
