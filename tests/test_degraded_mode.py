"""Degraded mode: after ``DEGRADED_AFTER`` consecutive slow-path commits a
replica stops paying the two timeouts of a dead fast path — as C-collector it
sends ``Prepare`` on the τ quorum instead of waiting out ``fast_path_timeout``
for σ, and it answers clients with signed replies next to its ``SignState``
(the slot's single E-collector may be the dead replica).  One fast commit
ends it.  docs/architecture.md, "Degraded mode".

Also here: the collector bugs degraded mode would have made a steady-state
wedge — a validly signed share over the wrong message, or one share replayed
under several claimed ids — and the :class:`~repro.core.log.Tally` every
quorum is counted on.
"""

from hypothesis import given, strategies as st

from helpers import assert_agreement, make_bare_replica, make_request, on_execute, run_small_cluster
from repro.core.config import SBFTConfig
from repro.core.log import CLOSED, Tally
from repro.core.messages import (
    CheckpointMsg,
    ClientReply,
    Commit,
    ExecuteAck,
    FullCommitProof,
    FullCommitProofSlow,
    FullExecuteProof,
    Prepare,
    PrePrepare,
    SignShare,
    SignState,
)
from repro.core.replica import SBFTReplica
from repro.core.roles import execution_collectors
from repro.crypto.signatures import generate_keypair
from repro.sim.faults import FaultPlan

CONFIG = SBFTConfig(f=1, batch_size=2, batch_timeout=0.01, fast_path_timeout=0.05)
CLIENT_NODE = CONFIG.n + 1
LIVE = (0, 1, 2)            # a τ quorum (2f+c+1 = 3); replica 3 is "dead"


def _collector(node_id=0):
    """-> (sim, replica, broadcasts, unicasts): the view-0 primary, which at
    c=0 is every slot's only C-collector; nothing leaves the replica."""
    sim, _network, replica = make_bare_replica(SBFTReplica, CONFIG, node_id=node_id)
    replica.client_directory[0] = CLIENT_NODE
    broadcasts, unicasts = [], []
    replica._broadcast = broadcasts.append
    replica._send = lambda dst, message: unicasts.append((dst, message))
    return sim, replica, broadcasts, unicasts


def _last(messages, cls):
    return [m for m in messages if isinstance(m, cls)][-1]


def _sign_shares(replica, sequence, digest, signers):
    sign_message = ("sign", sequence, 0, digest)
    for i in signers:
        share = SignShare(
            sequence=sequence, view=0, replica_id=i, digest=digest,
            sigma_share=replica.keys.sigma.sign_share(i, sign_message),
            tau_share=replica.keys.tau.sign_share(i, sign_message),
        )
        replica._on_sign_share(share, src=i)


def _commits(replica, sequence, digest, signers):
    commit_message = ("commit", sequence, 0, digest)
    for i in signers:
        commit = Commit(sequence=sequence, view=0, replica_id=i, digest=digest,
                        tau_share_on_tau=replica.keys.tau.sign_share(i, commit_message))
        replica._on_commit(commit, src=i)


def _propose(replica, broadcasts, first_timestamp):
    """Two client requests -> the primary's next block, delivered to itself."""
    for timestamp in (first_timestamp, first_timestamp + 1):
        replica._on_client_request(make_request(timestamp), src=CLIENT_NODE)
    pre_prepare = _last(broadcasts, PrePrepare)
    replica._on_pre_prepare(pre_prepare, src=0)
    return pre_prepare


def _slow_commit(sim, replica, broadcasts, pre_prepare):
    """Drive one block through the whole linear-PBFT path with replica 3 silent."""
    sequence, digest = pre_prepare.sequence, pre_prepare.digest
    _sign_shares(replica, sequence, digest, LIVE)
    sim.run(until=sim.now + 0.06)                       # a pending σ wait, if any
    replica._on_prepare(_last(broadcasts, Prepare), src=0)
    _commits(replica, sequence, digest, LIVE)
    proof = _last(broadcasts, FullCommitProofSlow)
    assert proof.sequence == sequence
    replica._on_full_commit_proof_slow(proof, src=0)
    sim.run(until=sim.now + 0.01)                       # execution
    assert replica.last_executed == sequence


def _degraded_collector():
    sim, replica, broadcasts, unicasts = _collector()
    for k in range(SBFTReplica.DEGRADED_AFTER):
        _slow_commit(sim, replica, broadcasts, _propose(replica, broadcasts, 2 * k + 1))
    return sim, replica, broadcasts, unicasts


# ----------------------------------------------------------------------
# The signal and the collector's half
# ----------------------------------------------------------------------
def test_first_slow_slots_wait_for_sigma_then_the_tau_quorum_sends_prepare_at_once():
    sim, replica, broadcasts, _ = _collector()
    for k in range(SBFTReplica.DEGRADED_AFTER):
        pre_prepare = _propose(replica, broadcasts, 2 * k + 1)
        _sign_shares(replica, pre_prepare.sequence, pre_prepare.digest, LIVE)
        slot = replica.log.slot(pre_prepare.sequence)
        assert slot.fast_path_timer is not None and not slot.prepare_sent
        _slow_commit(sim, replica, broadcasts, pre_prepare)
    assert replica.stats["sigma_waits_skipped"] == 0

    pre_prepare = _propose(replica, broadcasts, 11)
    prepares = sum(isinstance(m, Prepare) for m in broadcasts)
    _sign_shares(replica, pre_prepare.sequence, pre_prepare.digest, LIVE)
    slot = replica.log.slot(pre_prepare.sequence)
    assert slot.prepare_sent and slot.fast_path_timer is None
    assert sum(isinstance(m, Prepare) for m in broadcasts) == prepares + 1
    assert _last(broadcasts, Prepare).sequence == pre_prepare.sequence
    assert replica.stats["sigma_waits_skipped"] == 1


def test_late_sigma_quorum_after_prepare_still_yields_the_fast_proof_and_ends_degraded_mode():
    sim, replica, broadcasts, _ = _degraded_collector()
    pre_prepare = _propose(replica, broadcasts, 11)
    _sign_shares(replica, pre_prepare.sequence, pre_prepare.digest, LIVE)
    assert _last(broadcasts, Prepare).sequence == pre_prepare.sequence
    assert not any(isinstance(m, FullCommitProof) for m in broadcasts)

    _sign_shares(replica, pre_prepare.sequence, pre_prepare.digest, [3])   # it was only slow
    proof = _last(broadcasts, FullCommitProof)
    assert proof.sequence == pre_prepare.sequence
    replica._on_full_commit_proof(proof, src=0)
    assert replica.log.slot(pre_prepare.sequence).committed_via_fast_path
    assert replica._slow_streak == 0

    # Healthy again: the next τ quorum arms the timer instead of preparing.
    pre_prepare = _propose(replica, broadcasts, 13)
    _sign_shares(replica, pre_prepare.sequence, pre_prepare.digest, LIVE)
    slot = replica.log.slot(pre_prepare.sequence)
    assert slot.fast_path_timer is not None and not slot.prepare_sent
    assert replica.stats["sigma_waits_skipped"] == 1


# ----------------------------------------------------------------------
# The reply half
# ----------------------------------------------------------------------
def test_degraded_execute_sends_one_signed_reply_per_request_and_its_sign_state():
    sim, replica, broadcasts, unicasts = _collector()

    def sent_for(sequence):
        replies = [m for dst, m in unicasts
                   if isinstance(m, ClientReply) and m.sequence == sequence and dst == CLIENT_NODE]
        states = [m for _dst, m in unicasts if isinstance(m, SignState) and m.sequence == sequence]
        return replies, states

    for k in range(SBFTReplica.DEGRADED_AFTER - 1):      # still healthy: π share only
        _slow_commit(sim, replica, broadcasts, _propose(replica, broadcasts, 2 * k + 1))
        replies, states = sent_for(k + 1)
        assert not replies and len(states) == 1
    assert replica.stats["blocks_replied_directly"] == 0

    pre_prepare = _propose(replica, broadcasts, 11)
    _slow_commit(sim, replica, broadcasts, pre_prepare)
    replies, states = sent_for(pre_prepare.sequence)
    assert [(r.client_id, r.timestamp) for r in replies] == [(0, 11), (0, 12)]
    assert all(r.replica_id == 0 and r.values == (True,) for r in replies)
    assert len(states) == 1
    assert replica.stats["blocks_replied_directly"] == 1


# ----------------------------------------------------------------------
# Cluster level
# ----------------------------------------------------------------------
def _client_total(cluster, key):
    return sum(client.stats[key] for client in cluster.clients.values())


def test_healthy_run_never_degrades():
    cluster, result = run_small_cluster("sbft-c0", f=1, num_clients=2, requests_per_client=6)
    for stats in result.replica_stats.values():
        assert stats["sigma_waits_skipped"] == 0 and stats["blocks_replied_directly"] == 0
    assert result.per_type_messages.get("client-reply", 0) == 0


def test_one_dead_backup_at_c0_costs_no_retry_beyond_the_requests_in_flight_at_the_crash():
    """A third of the slots have the dead replica as their only E-collector:
    before degraded mode each such block cost every client in it one
    ``client_retry_timeout``."""
    clients = 4
    cluster, result = run_small_cluster(
        "sbft-c0", f=1, num_clients=clients, requests_per_client=12,
        fault_plan=FaultPlan.crash_backups(1, n=4, at_time=0.02),
    )
    assert result.run.completed_requests == clients * 12
    assert _client_total(cluster, "retries") <= clients        # window 1: one each
    assert _client_total(cluster, "fallbacks") > clients
    primary = result.replica_stats[0]
    assert primary["sigma_waits_skipped"] > 0 and primary["blocks_replied_directly"] > 0
    assert primary["blocks_committed_fast"] > 0 and primary["blocks_committed_slow"] > 0
    assert_agreement(cluster)


def test_crash_restart_leaves_degraded_mode():
    """Not latched: once the restarted backup signs again the σ quorum
    completes, one fast commit resets every replica, and clients are back on
    single execute-acks."""
    plan = FaultPlan.crash_first(1, at_time=0.5, node_ids=[3]).extend(
        FaultPlan.restart([3], at_time=2.0))
    to_clients = []
    slow = []   # the primary's slow-path commits, read as each block executes

    def note_slow(replica, sequence, digest):
        if replica.node_id == 0 and not replica.log.peek(sequence).committed_via_fast_path:
            slow.append(sequence)

    def tap_client_traffic(cluster):
        cluster.network.add_tap(
            lambda src, dst, m: isinstance(m, (ClientReply, ExecuteAck))
            and to_clients.append((cluster.sim.now, type(m))))
        on_execute(cluster, note_slow)

    cluster, result = run_small_cluster(
        "sbft-c0", f=1, num_clients=6, requests_per_client=24, topology="continent",
        fault_plan=plan, config_overrides={"checkpoint_interval": 8}, post_build=tap_client_traffic,
    )
    assert result.run.completed_requests == 6 * 24
    primary = cluster.replicas[0]
    assert primary.stats["sigma_waits_skipped"] > 10          # entered ...
    assert all(r._slow_streak == 0 for r in cluster.replicas.values())   # ... and left
    # One stretch of slow commits, answered directly from its third block on;
    # every block after it is fast and answered by execute-acks again (the few
    # signed replies left are the existing answers to forwarded requests).
    assert slow == list(range(slow[0], slow[-1] + 1)) and slow[-1] < primary.last_executed - 50
    assert 10 < primary.stats["blocks_replied_directly"] <= len(slow)
    degraded = [cls for t, cls in to_clients if 1.0 < t < 2.0]
    healed = [cls for t, cls in to_clients if t > 4.0]
    assert degraded.count(ClientReply) > 3 * degraded.count(ExecuteAck)
    assert healed.count(ExecuteAck) > 50 > healed.count(ClientReply)
    assert_agreement(cluster)


def test_direct_replies_of_a_degraded_cluster_count_only_with_a_valid_replica_signature():
    """Replica 1's replies are re-signed with a key the deployment does not
    know: the client rejects each one and completes on the other two live
    replicas' f+1 matching replies."""
    stranger = generate_keypair("not-a-replica")

    def forge_replica_1(cluster):
        def intercept(src, dst, message):
            if src == 1 and isinstance(message, ClientReply):
                message = ClientReply(
                    sequence=message.sequence, client_id=message.client_id,
                    timestamp=message.timestamp, values=message.values, replica_id=1,
                    signature=stranger.sign(
                        ("reply", message.client_id, message.timestamp, message.values)),
                )
            return message, 0.0
        cluster.network.set_interceptor(intercept)

    cluster, result = run_small_cluster(
        "sbft-c0", f=1, num_clients=2, requests_per_client=12,
        fault_plan=FaultPlan.crash_backups(1, n=4, at_time=0.02), post_build=forge_replica_1,
    )
    assert result.run.completed_requests == 24
    assert _client_total(cluster, "acks_rejected") > 0
    assert _client_total(cluster, "fallbacks") > 0
    assert result.replica_stats[1]["blocks_replied_directly"] > 0
    for client in cluster.clients.values():
        assert all(values == (True, True) for values in client.accepted_values)


# ----------------------------------------------------------------------
# Bugfix: a valid share over the wrong message must not wedge a collector
# ----------------------------------------------------------------------
def test_commit_share_over_another_message_is_dropped_and_the_slow_proof_still_forms():
    sim, replica, broadcasts, _ = _collector()
    pre_prepare = _propose(replica, broadcasts, 1)
    digest = pre_prepare.digest
    wrong = ("commit", 1, 0, "other")
    # Validly signed by replica 3, over another digest: once with an honest
    # header, once with a header that agrees with the share.
    for header_digest in (digest, "other"):
        replica._on_commit(
            Commit(sequence=1, view=0, replica_id=3, digest=header_digest,
                   tau_share_on_tau=replica.keys.tau.sign_share(3, wrong)), src=3)
    assert replica.log.slot(1).shares.votes(("tau", ("commit", 1, 0, digest))) == {}

    _commits(replica, 1, digest, (1, 2))
    # The quorum-completing commit lies in its header only: the proof must
    # carry the collector's digest, not the sender's.
    replica._on_commit(
        Commit(sequence=1, view=0, replica_id=0, digest="other",
               tau_share_on_tau=replica.keys.tau.sign_share(0, ("commit", 1, 0, digest))), src=0)
    proof = _last(broadcasts, FullCommitProofSlow)
    assert proof.digest == digest
    assert replica.keys.tau.verify_message(proof.tau_tau_signature, ("commit", 1, 0, digest))


def test_state_share_over_another_message_is_dropped_and_the_execute_proof_still_forms():
    collector = execution_collectors(1, 0, CONFIG.n, CONFIG.collectors_per_slot)[0]
    sim, replica, broadcasts, _ = _collector(node_id=collector)
    pi = replica.keys.pi
    replica._on_sign_state(
        SignState(sequence=1, replica_id=3, state_digest="s",
                  pi_share=pi.sign_share(3, ("state", 1, "other"))), src=3)
    assert replica.log.slot(1).shares.votes(("pi", ("state", 1, "s"))) == {}
    for i in (0, 1):                                            # π threshold is f+1
        replica._on_sign_state(
            SignState(sequence=1, replica_id=i, state_digest="s",
                      pi_share=pi.sign_share(i, ("state", 1, "s"))), src=i)
    proof = _last(broadcasts, FullExecuteProof)
    assert pi.verify_message(proof.pi_signature, ("state", 1, "s"))


def test_self_consistent_wrong_digest_sign_share_first_does_not_cost_the_slot_its_proof():
    sim, replica, broadcasts, _ = _collector()
    pre_prepare = _propose(replica, broadcasts, 1)
    _sign_shares(replica, 1, "other", [3])              # header and both shares agree on it
    _sign_shares(replica, 1, pre_prepare.digest, LIVE)
    sim.run(until=sim.now + 0.06)                       # healthy: the σ wait
    certificate = _last(broadcasts, Prepare)
    assert certificate.digest == pre_prepare.digest
    assert replica.keys.tau.verify_message(certificate.tau_signature, ("sign", 1, 0, pre_prepare.digest))
    # The byzantine replica signing the real digest as well completes σ.
    _sign_shares(replica, 1, pre_prepare.digest, [3])
    assert _last(broadcasts, FullCommitProof).digest == pre_prepare.digest


def test_share_over_a_float_look_alike_of_the_signed_message_is_not_counted():
    """``("sign", 1.0, 0, d) == ("sign", 1, 0, d)`` in Python, but the two
    encode — and so are signed — differently.  Replica 3's shares over the
    float look-alike, made with its real secrets, verify for their own
    message; filed under the slot's, they completed a σ quorum that combined
    into a proof that does not verify, and the slot never prepared."""
    sim, replica, broadcasts, _ = _collector()
    pre_prepare = _propose(replica, broadcasts, 1)
    signed = ("sign", 1, 0, pre_prepare.digest)
    look_alike = ("sign", 1.0, 0, pre_prepare.digest)
    sigma, tau = replica.keys.sigma, replica.keys.tau
    replica._on_sign_share(
        SignShare(sequence=1, view=0, replica_id=3, digest=pre_prepare.digest,
                  sigma_share=sigma.sign_share(3, look_alike),
                  tau_share=tau.sign_share(3, look_alike)), src=3)
    slot = replica.log.slot(1)
    assert slot.shares.votes(("sigma", signed)) == {} and slot.shares.votes(("tau", signed)) == {}
    _sign_shares(replica, 1, pre_prepare.digest, LIVE)
    sim.run(until=sim.now + 0.06)                       # healthy: the σ wait
    assert tau.verify_message(_last(broadcasts, Prepare).tau_signature, signed)
    _sign_shares(replica, 1, pre_prepare.digest, [3])   # now over the real message
    assert sigma.verify_message(_last(broadcasts, FullCommitProof).sigma_signature, signed)


def test_one_share_replayed_under_three_claimed_ids_counts_once():
    sim, replica, broadcasts, _ = _collector()
    pre_prepare = _propose(replica, broadcasts, 1)
    signed = ("sign", 1, 0, pre_prepare.digest)
    sigma, tau = replica.keys.sigma.sign_share(3, signed), replica.keys.tau.sign_share(3, signed)
    for claimed in (3, 1, 2):
        replica._on_sign_share(
            SignShare(sequence=1, view=0, replica_id=claimed, digest=pre_prepare.digest,
                      sigma_share=sigma, tau_share=tau), src=3)
    slot = replica.log.slot(1)
    assert list(slot.shares.votes(("sigma", signed))) == list(slot.shares.votes(("tau", signed))) == [3]
    _sign_shares(replica, 1, pre_prepare.digest, LIVE)
    proof = _last(broadcasts, FullCommitProof)
    assert proof.digest == pre_prepare.digest and replica.stats.combine_fallbacks == 0
    assert replica.keys.sigma.verify_message(proof.sigma_signature, signed)
    # The proof replaced the four shares: both buckets are closed.
    assert slot.shares.get(("sigma", signed)) is CLOSED and slot.shares.get(("tau", signed)) is CLOSED


def test_wrong_digest_state_share_first_does_not_cost_the_block_its_execute_proof():
    collector = execution_collectors(1, 0, CONFIG.n, CONFIG.collectors_per_slot)[0]
    sim, replica, broadcasts, _ = _collector(node_id=collector)
    pi = replica.keys.pi
    for signer, state_digest in ((3, "other"), (0, "s"), (1, "s")):   # π threshold is f+1
        replica._on_sign_state(
            SignState(sequence=1, replica_id=signer, state_digest=state_digest,
                      pi_share=pi.sign_share(signer, ("state", 1, state_digest))), src=signer)
    proof = _last(broadcasts, FullExecuteProof)
    assert proof.state_digest == "s" and pi.verify_message(proof.pi_signature, ("state", 1, "s"))


def test_checkpoint_share_over_another_message_is_dropped_and_a_signer_counts_once():
    sim, replica, broadcasts, _ = _collector()
    pi, sequence = replica.keys.pi, CONFIG.checkpoint_every

    def checkpoint(signer, signed_digest):
        share = pi.sign_share(signer, ("checkpoint", sequence, signed_digest))
        replica._on_checkpoint(
            CheckpointMsg(sequence=sequence, replica_id=signer, state_digest="s", pi_share=share),
            src=signer)
        return share

    checkpoint(3, "other")                              # not the message its header names
    assert replica._checkpoint_shares[sequence] == {}
    first = checkpoint(0, "s")
    checkpoint(0, "s")
    bucket = replica._checkpoint_shares[sequence].votes(("pi", ("checkpoint", sequence, "s")))
    assert bucket == {0: first} and not broadcasts and replica.last_stable == 0
    checkpoint(1, "s")
    assert replica.last_stable == sequence and len(broadcasts) == 1
    assert pi.verify_message(broadcasts[0].pi_signature, ("checkpoint", sequence, "s"))
    assert replica._checkpoint_shares[sequence].get(("pi", ("checkpoint", sequence, "s"))) is CLOSED


@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 4), st.integers())))
def test_tally_counts_each_voter_once_per_value_and_keeps_the_first_payload(votes):
    tally, model, returned = Tally(), {}, []
    for value, voter, payload in votes:
        count = tally.add(value, voter, payload)
        if voter in model.setdefault(value, {}):
            assert count == 0
        else:
            model[value][voter] = payload
            returned.append((value, count))
    # add returned k for exactly one vote per (value, k), k = 1 .. distinct voters.
    assert sorted(returned) == sorted((v, k) for v in model for k in range(1, len(model[v]) + 1))
    for value in range(3):
        assert tally.votes(value) == model.get(value, {})
        assert list(tally.votes(value)) == list(model.get(value, {}))       # arrival order
