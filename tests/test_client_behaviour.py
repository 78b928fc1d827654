"""Tests for the SBFT client: single-ack acceptance, rejection, retry fallback."""

import dataclasses

import pytest

from helpers import run_small_cluster
from repro.core.client import SBFTClient
from repro.core.config import SBFTConfig
from repro.core.keys import TrustedSetup
from repro.core.messages import ClientReply, ExecuteAck
from repro.crypto.signatures import generate_keypair
from repro.errors import ConfigurationError
from repro.metrics.collector import LatencyRecorder
from repro.services.authenticated_kv import AuthenticatedKVStore
from repro.sim.events import Simulator
from repro.sim.latency import lan_topology
from repro.sim.network import Network

CONFIG = SBFTConfig(f=1, c=0, client_retry_timeout=0.5)
SETUP = TrustedSetup(CONFIG, seed=4)


class _FakeReplica:
    """Registers under a replica id and records what the client sends."""

    def __init__(self, sim, node_id):
        self.sim = sim
        self.node_id = node_id
        self.crashed = False
        self.received = []

    def deliver(self, message, src):
        self.received.append((message, src))


def _make_client(requests=1, config=CONFIG):
    """A client of ``config`` (f=1, c=0, like ``SETUP``) on a bare network
    whose replicas only record what they receive."""
    sim = Simulator(seed=1)
    network = Network(sim, latency=lan_topology(8), seed=1)
    replicas = []
    for replica_id in range(config.n):
        replica = _FakeReplica(sim, replica_id)
        network.register(replica)
        replicas.append(replica)
    ops = [[AuthenticatedKVStore.make_put(f"k{i}", "v", client_id=0, timestamp=i + 1)] for i in range(requests)]
    client = SBFTClient(
        sim=sim,
        network=network,
        node_id=config.n,
        client_id=0,
        config=config,
        signing_key=generate_keypair("client-0"),
        requests=ops,
        recorder=LatencyRecorder(),
        verifier=AuthenticatedKVStore(),
        replica_verify_keys={i: SETUP.replica_verify_key(i) for i in range(config.n)},
        pi_scheme=SETUP.pi,
    )
    network.register(client)
    return sim, network, replicas, client


def _pi_signature(sequence, digest):
    return SETUP.pi.combine(
        [SETUP.pi.sign_share(i, ("state", sequence, digest)) for i in range(CONFIG.pi_threshold)]
    )


def _executed_ack_for(client, timestamp=1):
    """A valid execute-ack for the client's in-flight request ``timestamp``,
    executed as block ``timestamp``."""
    request = client._in_flight[timestamp].request
    store = AuthenticatedKVStore()
    results = store.execute_block(timestamp, list(request.operations))
    digest = store._digest_at[timestamp]
    return ExecuteAck(
        sequence=timestamp,
        client_id=0,
        timestamp=timestamp,
        first_position=0,
        values=tuple(result.value for result in results),
        state_digest=digest,
        pi_signature=_pi_signature(timestamp, digest),
        proof=store.prove(timestamp, 0),
    )


def test_client_sends_first_request_to_believed_primary():
    sim, network, replicas, client = _make_client()
    sim.run(until=0.05)
    assert len(replicas[0].received) == 1
    assert all(not replica.received for replica in replicas[1:])


def test_client_accepts_single_valid_ack():
    sim, network, replicas, client = _make_client()
    sim.run(until=0.05)
    ack = _executed_ack_for(client)
    network.send(1, client.node_id, ack)
    sim.run(until=0.2)
    assert client.completed == 1
    assert client.stats["acks_accepted"] == 1
    assert client.done


def test_client_rejects_ack_with_bad_proof_or_signature():
    sim, network, replicas, client = _make_client()
    sim.run(until=0.05)
    genuine = _executed_ack_for(client)

    # Wrong value -> Merkle verification fails.
    tampered_values = dataclasses.replace(genuine, values=("forged",))
    # pi signature over a different digest -> threshold verification fails.
    bad_signature = dataclasses.replace(genuine, pi_signature=_pi_signature(1, "some-other-digest"))
    network.send(1, client.node_id, tampered_values)
    network.send(1, client.node_id, bad_signature)
    sim.run(until=0.2)
    assert client.completed == 0
    assert client.stats["acks_rejected"] == 2


def test_client_rejects_an_ack_stripped_of_its_proof():
    """π(d) signs only the state digest: without the proof nothing ties the
    returned values to it, so a valid-π ack with forged values and no proof
    must not complete the request."""
    sim, network, replicas, client = _make_client()
    sim.run(until=0.05)
    stripped = dataclasses.replace(_executed_ack_for(client), values=("FORGED",), proof=None)
    network.send(1, client.node_id, stripped)
    sim.run(until=0.2)
    assert client.completed == 0 and client.accepted_values == []
    assert client.stats["acks_rejected"] == 1


class _ClaimsARoot:
    """Not a ``MerkleProof``: whatever the leaf, it names the root it was given."""

    size_bytes = 0

    def __init__(self, root):
        self.root = root

    def root_from(self, value):
        return self.root


@pytest.mark.parametrize("entry_proof", [
    lambda proof: dataclasses.replace(proof, path=((1,),)),       # a pair short of a pair
    lambda proof: dataclasses.replace(proof, path=(5,)),          # not a pair at all
    lambda proof: _ClaimsARoot(proof._proved[1]),                 # the genuine root, for any leaf
], ids=["short-pair", "not-a-pair", "not-a-merkle-proof"])
def test_an_ack_with_a_malformed_entry_proof_is_rejected_and_the_fallback_completes(entry_proof):
    """A faulty E-collector's entry proof that is no Merkle path is no proof:
    the client rejects the ack (nothing raises) and completes the request
    through f+1 signed replies."""
    sim, network, replicas, client = _make_client()
    sim.run(until=0.05)
    genuine = _executed_ack_for(client)
    kv_proof = genuine.proof.proof
    forged = dataclasses.replace(kv_proof, entry_proof=entry_proof(kv_proof.entry_proof))
    network.send(1, client.node_id, dataclasses.replace(
        genuine, proof=dataclasses.replace(genuine.proof, proof=forged)))
    sim.run(until=0.2)
    assert client.completed == 0 and client.stats["acks_rejected"] == 1
    sim.run(until=0.7)                                      # the retry asks every replica
    values = genuine.values
    for replica_id in range(CONFIG.f + 1):
        key = SETUP.replica_keys(replica_id).signing_key
        network.send(replica_id, client.node_id, ClientReply(
            sequence=1, client_id=0, timestamp=1, values=values, replica_id=replica_id,
            signature=key.sign(("reply", 0, 1, values))))
    sim.run(until=1.0)
    assert client.completed == 1 and client.stats["fallbacks"] == 1


def test_client_ignores_acks_for_other_timestamps():
    sim, network, replicas, client = _make_client()
    sim.run(until=0.05)
    stale = dataclasses.replace(_executed_ack_for(client), timestamp=99)
    network.send(1, client.node_id, stale)
    sim.run(until=0.2)
    assert client.completed == 0


def test_client_retry_broadcasts_and_accepts_f_plus_one_replies():
    sim, network, replicas, client = _make_client()
    sim.run(until=0.05)
    assert client._in_flight

    # Let the retry timer fire: the request goes to every replica.
    sim.run(until=0.7)
    assert client.stats["retries"] >= 1
    for replica in replicas:
        assert any(msg.timestamp == 1 for msg, _src in replica.received if hasattr(msg, "timestamp"))

    # f+1 matching signed replies complete the request (fallback path).
    for replica_id in range(CONFIG.f + 1):
        key = SETUP.replica_keys(replica_id).signing_key
        reply = ClientReply(
            sequence=1,
            client_id=0,
            timestamp=1,
            values=(True,),
            replica_id=replica_id,
            signature=key.sign(("reply", 0, 1, (True,))),
        )
        network.send(replica_id, client.node_id, reply)
    sim.run(until=1.0)
    assert client.completed == 1
    assert client.stats["fallbacks"] == 1


def test_fewer_than_f_plus_one_replies_do_not_complete():
    sim, network, replicas, client = _make_client()
    sim.run(until=0.05)
    key = SETUP.replica_keys(0).signing_key
    reply = ClientReply(
        sequence=1, client_id=0, timestamp=1, values=(True,), replica_id=0,
        signature=key.sign(("reply", 0, 1, (True,))),
    )
    network.send(0, client.node_id, reply)
    sim.run(until=0.2)
    assert client.completed == 0


def test_one_faulty_replica_cannot_fill_the_fallback_quorum_under_many_ids():
    """A single liar signing with its own key but claiming f+1 different
    replica ids must not get its value accepted; neither must replies for
    another client or with a swapped value.  Honest replies still complete."""
    sim, network, replicas, client = _make_client()
    sim.run(until=0.05)
    liar = SETUP.replica_keys(3).signing_key
    forged_values = ("forged",)

    def reply(signing_key, claimed_id, values, signed_client=0):
        return ClientReply(
            sequence=1, client_id=0, timestamp=1, values=values, replica_id=claimed_id,
            signature=signing_key.sign(("reply", signed_client, 1, values)),
        )

    for claimed_id in range(CONFIG.n):
        if claimed_id != 3:
            network.send(3, client.node_id, reply(liar, claimed_id, forged_values))
    # Validly signed, but for client 7's request.
    network.send(0, client.node_id, reply(SETUP.replica_keys(0).signing_key, 0, (True,), signed_client=7))
    # An id the deployment has no key for.
    network.send(3, client.node_id, reply(liar, 99, forged_values))
    sim.run(until=0.2)
    assert client.completed == 0
    assert client.stats["acks_rejected"] == CONFIG.n - 1 + 2
    assert client.stats["fallbacks"] == 0

    # The liar's one genuine vote counts once; f honest votes for the real
    # value plus one more complete the request with the honest value.
    network.send(3, client.node_id, reply(liar, 3, forged_values))
    for replica_id in range(CONFIG.f + 1):
        network.send(replica_id, client.node_id, reply(SETUP.replica_keys(replica_id).signing_key, replica_id, (True,)))
    sim.run(until=0.4)
    assert client.completed == 1
    assert client.accepted_values == [(True,)]
    assert client.stats["fallbacks"] == 1


def test_reply_to_a_client_built_without_replica_keys_raises():
    """Forgetting to hand the client the replica keys is a wiring error, not a
    silent liveness loss through rejected replies."""
    sim, network, replicas, client = _make_client()
    client.replica_verify_keys = None
    sim.run(until=0.05)
    signature = SETUP.replica_keys(0).signing_key.sign(("reply", 0, 1, (True,)))
    network.send(0, client.node_id, ClientReply(
        sequence=1, client_id=0, timestamp=1, values=(True,), replica_id=0, signature=signature,
    ))
    with pytest.raises(ConfigurationError, match="replica_verify_keys"):
        sim.run(until=0.2)


def test_client_issues_requests_sequentially():
    """End to end: a closed-loop client never has two requests in flight."""
    cluster, result = run_small_cluster("sbft-c0", f=1, num_clients=1, requests_per_client=5)
    client = cluster.clients[0]
    assert client.completed == 5
    # Timestamps are strictly monotone, one per completed request.
    assert client._timestamp == 5
