"""Boundary coverage for ``state_transfer_lag`` (snapshot catch-up trigger).

The trigger in both replica stacks is strict: a replica fetches a snapshot
only when ``last_executed + state_transfer_lag < observed_sequence``.  These
tests pin the three boundary shapes:

* exactly *at* the threshold — no fetch; one past it — fetch (both stacks);
* a lag window straddling a checkpoint period: the checkpoint on the near
  side of the threshold stays quiet, the next one (one period later) fires;
* a restarted replica that is not behind (``last_stable == last_executed``,
  no cluster progress while down) must draw no snapshot — peers simply do
  not answer its rejoin probe.
"""

import pytest

from helpers import run_small_cluster
from repro.core.messages import StableCheckpoint, StateTransferResponse
from repro.crypto.hashing import sha256_hex
from repro.pbft.messages import PbftCheckpoint


def _pbft_checkpoint(cluster, signer_id: int, sequence: int) -> PbftCheckpoint:
    """A validly signed checkpoint vote from ``signer_id`` for ``sequence``."""
    signer = cluster.replicas[signer_id]
    digest = sha256_hex("lag-boundary", sequence)
    signature = signer.signing_key.sign(("checkpoint", sequence, digest))
    return PbftCheckpoint(
        sequence=sequence, state_digest=digest, replica_id=signer_id, signature=signature
    )


def _reset_throttle(replica) -> None:
    # The request throttle remembers the last (sequence, time) it fired at;
    # clear it so each probe observes the trigger condition alone.
    replica._state_transfer_seq = -1
    replica._state_transfer_at = -1e9


def test_pbft_exactly_at_lag_threshold_does_not_fetch():
    cluster, _result = run_small_cluster("pbft", f=1, requests_per_client=6)
    replica = cluster.replicas[1]
    lag = replica.config.state_transfer_lag
    base = replica.last_executed

    _reset_throttle(replica)
    before = replica.stats.state_transfers
    replica._on_checkpoint(_pbft_checkpoint(cluster, 3, base + lag), src=3)
    assert replica.stats.state_transfers == before, "at-threshold lag must not fetch"

    _reset_throttle(replica)
    replica._on_checkpoint(_pbft_checkpoint(cluster, 3, base + lag + 1), src=3)
    assert replica.stats.state_transfers == before + 1, "one past the threshold must fetch"


def test_sbft_exactly_at_lag_threshold_does_not_fetch():
    cluster, _result = run_small_cluster("sbft-c0", f=1, requests_per_client=6)
    replica = cluster.replicas[1]
    lag = replica.config.state_transfer_lag
    base = replica.last_executed
    pi = cluster.setup.pi

    def stable_checkpoint(sequence: int) -> StableCheckpoint:
        digest = sha256_hex("lag-boundary", sequence)
        message = ("checkpoint", sequence, digest)
        shares = [pi.sign_share(i, message) for i in range(cluster.config.f + 1)]
        return StableCheckpoint(
            sequence=sequence, state_digest=digest, pi_signature=pi.combine(shares)
        )

    _reset_throttle(replica)
    before = replica.stats.state_transfers
    replica._on_stable_checkpoint(stable_checkpoint(base + lag), src=3)
    assert replica.stats.state_transfers == before, "at-threshold lag must not fetch"

    _reset_throttle(replica)
    replica._on_stable_checkpoint(stable_checkpoint(base + lag + 1), src=3)
    assert replica.stats.state_transfers == before + 1, "one past the threshold must fetch"


def test_lag_straddling_checkpoint_period():
    """With interval 4 and lag 8, a replica at ``last_executed = c - 11`` sits
    between two checkpoint sequences: the near one (``c - 4``... i.e. at
    distance 8 = lag) stays quiet and the far one (distance 12) fires."""
    cluster, _result = run_small_cluster(
        "pbft", f=1, requests_per_client=6, config_overrides={"checkpoint_interval": 4}
    )
    replica = cluster.replicas[1]
    lag = replica.config.state_transfer_lag
    interval = replica.config.checkpoint_every
    assert lag == 2 * interval == 8

    base = replica.last_executed
    # Checkpoint sequences are multiples of the interval; pick the pair that
    # straddles base + lag: near at distance `lag`, far one period later.
    near = base + lag
    far = near + interval

    _reset_throttle(replica)
    before = replica.stats.state_transfers
    replica._on_checkpoint(_pbft_checkpoint(cluster, 3, near), src=3)
    assert replica.stats.state_transfers == before

    _reset_throttle(replica)
    replica._on_checkpoint(_pbft_checkpoint(cluster, 3, far), src=3)
    assert replica.stats.state_transfers == before + 1


def test_lag_is_capped_at_half_window():
    """A huge checkpoint interval must not push the trigger past ``window/2``
    (the log cannot hold more history than that anyway)."""
    from repro.core.config import SBFTConfig

    roomy = SBFTConfig(f=1, c=0, window=256, checkpoint_interval=4)
    assert roomy.state_transfer_lag == 8  # 2 * checkpoint_every
    capped = SBFTConfig(f=1, c=0, window=16, checkpoint_interval=64)
    assert capped.state_transfer_lag == 8  # window // 2, not 128


@pytest.mark.parametrize("protocol", ["sbft-c0", "pbft"])
def test_restart_without_progress_fetches_nothing(protocol):
    cluster, result = run_small_cluster(protocol, f=1, requests_per_client=6)
    replica = cluster.replicas[2]
    # Not behind: everything executed is stable, and the cluster makes no
    # further progress while the replica is down.
    replica.last_stable = replica.last_executed
    digest_before = replica.service.digest()

    responses = []
    cluster.network.add_tap(
        lambda src, dst, msg: responses.append(msg)
        if dst == 2 and isinstance(msg, StateTransferResponse)
        else None
    )
    replica.crash()
    replica.rejoin()
    cluster.sim.run(until=cluster.sim.now + 30.0)

    assert responses == [], "peers that are not ahead must not ship a snapshot"
    assert replica.service.digest() == digest_before
    assert replica.last_stable == replica.last_executed
