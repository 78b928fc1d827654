"""Byzantine replica behaviours (``silent``, ``equivocate``, ``bad-shares``,
``stale-viewchange``): fixed-seed golden fingerprints of whole-cluster runs.

The fingerprints were captured at commit c0ec39b, before the behaviours moved
out of the replica classes; no refactor of where the adversary code lives may
move any of them.
"""

import pytest

from helpers import run_fingerprint
from repro.adversary import EpisodeSpec, run_episode
from repro.sim.faults import FaultPlan


def _byzantine(replica_ids, behaviour, at_time):
    return FaultPlan.byzantine(replica_ids, mode=behaviour, at_time=at_time)


_PRIMARY_CRASH = FaultPlan.crash_first(1, at_time=0.02)

#: Each behaviour on every protocol stack that supports it, plus the runs
#: that pin what a behaviour must *not* touch: re-proposals by an
#: equivocating new primary (the ``next-primary`` runs), the checkpoint π
#: share (``linear-pbft`` has no execution collectors) and the view-change σ
#: evidence (``then-view-change``) of a share forger.
GOLDEN_BYZANTINE_RUNS = [
    ("silent-primary-sbft-c0", "sbft-c0",
     dict(f=1, num_clients=2, requests_per_client=8, seed=21,
          fault_plan=_byzantine([0], "silent", 0.02)),
     "0e6765ff1f45e90549977298f8eeb59f72eb45fa43c07d075fbbb6a0f2697a59"),
    ("silent-primary-pbft", "pbft",
     dict(f=1, num_clients=2, requests_per_client=8, seed=21,
          fault_plan=_byzantine([0], "silent", 0.02)),
     "addbc50269c41f26aa719d48db02ca89c85700516e1a6f3e2927015e73b30e48"),
    ("silent-backup-sbft-c8", "sbft-c8",
     dict(f=1, c=1, num_clients=2, requests_per_client=8, seed=22,
          fault_plan=_byzantine([4], "silent", 0.01)),
     "e08997719a2d42b25a8dc874c0c197497d8e83bd1c648fdd2b43cd24acec3b33"),
    ("equivocate-primary-sbft-c0", "sbft-c0",
     dict(f=1, num_clients=2, requests_per_client=8, seed=23,
          fault_plan=_byzantine([0], "equivocate", 0.0)),
     "a337e65b5464f3bc4474e2d9929e3516752b3be2c1c2bbcd70d5a12f564c13e8"),
    ("equivocate-primary-pbft", "pbft",
     dict(f=1, num_clients=2, requests_per_client=8, seed=23,
          fault_plan=_byzantine([0], "equivocate", 0.0)),
     "cceecb03b094da483dd092f2062fd962b26fb1a0196224313ca4a32e56448b3b"),
    ("equivocate-next-primary-sbft-c0-f2", "sbft-c0",
     dict(f=2, num_clients=4, requests_per_client=6, seed=24,
          fault_plan=_PRIMARY_CRASH.extend(_byzantine([1], "equivocate", 0.0))),
     "0aa879c977abd1be446fa66d3c46f81737bb2a5efc4b801c355cb226a856eab9"),
    ("equivocate-next-primary-pbft-f2", "pbft",
     dict(f=2, num_clients=4, requests_per_client=6, seed=24,
          fault_plan=_PRIMARY_CRASH.extend(_byzantine([1], "equivocate", 0.0))),
     "d5213440e543da8968f52f4d474d4da234262860ebb02dcef2b903f18fcf9240"),
    ("stale-viewchange-sbft-c0", "sbft-c0",
     dict(f=1, num_clients=2, requests_per_client=8, seed=25,
          fault_plan=_PRIMARY_CRASH.extend(_byzantine([3], "stale-viewchange", 0.0))),
     "00e8f33b19d922774572bea21d5ea162351098c1fa48cf64af5b9845091eaaec"),
    ("stale-viewchange-pbft", "pbft",
     dict(f=1, num_clients=2, requests_per_client=8, seed=25,
          fault_plan=_PRIMARY_CRASH.extend(_byzantine([3], "stale-viewchange", 0.0))),
     "24397fa23fc94f0cb3d558f71de7cb9070b5209c8557047bead802a94afe4c16"),
    ("stale-viewchange-sbft-c0-f2-continent", "sbft-c0",
     dict(f=2, num_clients=4, requests_per_client=6, batch_size=4, topology="continent", seed=26,
          fault_plan=FaultPlan.crash_first(1, at_time=0.3).extend(
              _byzantine([5, 6], "stale-viewchange", 0.1))),
     "0017c502d1a405bc962612ef307a64e93714dad036ff8caa6a41f24346d14861"),
    ("bad-shares-sbft-c0", "sbft-c0",
     dict(f=1, num_clients=2, requests_per_client=8, seed=27,
          fault_plan=_byzantine([3], "bad-shares", 0.0)),
     "5194f8615ddad00ac547cafd503a8d15b85325a45ed13cbb90a2f214a2f07581"),
    ("bad-shares-sbft-c8", "sbft-c8",
     dict(f=1, c=1, num_clients=2, requests_per_client=8, seed=27,
          fault_plan=_byzantine([5], "bad-shares", 0.01)),
     "2699844d77ce71435edbb5a40e0bb8c6ca81a7b58f3985e2af772eca8f1d9d71"),
    ("bad-shares-linear-pbft", "linear-pbft",
     dict(f=1, num_clients=2, requests_per_client=20, seed=28,
          config_overrides={"checkpoint_interval": 4},
          fault_plan=_byzantine([2], "bad-shares", 0.0)),
     "4f0ac07a38c867fd754b1f68b42e6b5a49e447c9ca0395537971fc718ee9ad16"),
    ("bad-shares-then-view-change-sbft-c0-f2", "sbft-c0",
     dict(f=2, num_clients=4, requests_per_client=6, seed=29,
          fault_plan=_PRIMARY_CRASH.extend(_byzantine([4], "bad-shares", 0.0))),
     "00c0fccdb36d1898285eb272868f07bf47ac3849bd1dc451bdaf4435d2c616ed"),
]


@pytest.mark.parametrize("protocol,kwargs,expected",
                         [run[1:] for run in GOLDEN_BYZANTINE_RUNS],
                         ids=[run[0] for run in GOLDEN_BYZANTINE_RUNS])
def test_byzantine_runs_reproduce_golden_seeds(protocol, kwargs, expected):
    assert run_fingerprint(protocol, **kwargs) == expected


#: ``viewchange-spam`` with ``equivocate_claims``: per view, the spammer's
#: honest view-change message and a stale one built by the same replica.
#: (verdict, completed, compromised, evidence, sim time, events) per protocol.
GOLDEN_SPAM_EPISODES = {
    "sbft-c0": ("ok", 12, (3,), 0, 0.055588281, 415),
    "pbft": ("ok", 12, (3,), 1, 0.027857588, 653),
}


@pytest.mark.parametrize("protocol", sorted(GOLDEN_SPAM_EPISODES))
def test_viewchange_spam_with_conflicting_claims_reproduces_golden_episode(protocol):
    spec = EpisodeSpec(
        protocol=protocol, strategy="viewchange-spam", seed=31,
        params=(("count", 12), ("equivocate_claims", True), ("jump", 3),
                ("period", 0.01), ("start", 0.0)),
    )
    report = run_episode(spec, forensics=True)
    assert (
        report.verdict(), report.completed, report.compromised, report.evidence_count,
        round(report.sim_time, 9), report.events_processed,
    ) == GOLDEN_SPAM_EPISODES[protocol]
