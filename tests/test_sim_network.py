"""Unit tests for the simulated network."""

import pytest

from repro.errors import NetworkError
from repro.sim.events import Simulator
from repro.sim.latency import UniformLatency
from repro.sim.network import Network
from repro.sim.process import Process


class Sink(Process):
    def __init__(self, sim, node_id):
        super().__init__(sim, node_id)
        self.received = []

    def on_message(self, message, src):
        self.received.append((message, src))


def make_net(num_nodes=3, **kwargs):
    sim = Simulator(seed=1)
    net = Network(sim, latency=UniformLatency(base=0.001, jitter=0.0), **kwargs)
    nodes = []
    for i in range(num_nodes):
        node = Sink(sim, i)
        net.register(node)
        nodes.append(node)
    return sim, net, nodes


def test_send_delivers_after_latency():
    sim, net, nodes = make_net()
    net.send(0, 1, "hello")
    sim.run()
    assert nodes[1].received == [("hello", 0)]
    assert sim.now >= 0.001


def test_send_to_unknown_node_raises():
    sim, net, nodes = make_net()
    with pytest.raises(NetworkError):
        net.send(0, 99, "nope")


def test_duplicate_registration_rejected():
    sim, net, nodes = make_net()
    with pytest.raises(NetworkError):
        net.register(Sink(sim, 0))


def test_broadcast_reaches_all_destinations():
    sim, net, nodes = make_net(4)
    net.broadcast_bulk(0, "blast", [1, 2, 3])
    sim.run()
    for node in nodes[1:]:
        assert node.received == [("blast", 0)]


def test_stats_count_messages_and_bytes():
    sim, net, nodes = make_net()
    net.send(0, 1, "x" * 10)
    net.send(0, 2, "y" * 10)
    sim.run()
    assert net.stats.messages_sent == 2
    assert net.stats.messages_delivered == 2
    assert net.stats.bytes_sent > 0
    assert net.stats.per_type_count["str"] == 2


def test_down_link_drops_messages():
    sim, net, nodes = make_net()
    net.set_link_down(0, 1)
    net.send(0, 1, "lost")
    net.send(0, 2, "kept")
    sim.run()
    assert nodes[1].received == []
    assert nodes[2].received == [("kept", 0)]
    assert net.stats.messages_dropped == 1
    net.set_link_up(0, 1)
    net.send(0, 1, "after repair")
    sim.run()
    assert nodes[1].received == [("after repair", 0)]


def test_drop_rate_drops_some_messages():
    sim, net, nodes = make_net(2, drop_rate=1.0)
    net.send(0, 1, "always dropped")
    sim.run()
    assert nodes[1].received == []
    assert net.stats.messages_dropped == 1


def test_tap_observes_sends():
    sim, net, nodes = make_net()
    seen = []
    net.add_tap(lambda src, dst, msg: seen.append((src, dst, msg)))
    net.send(0, 1, "observed")
    assert seen == [(0, 1, "observed")]


def test_message_size_respects_size_bytes_attribute():
    class Sized:
        msg_type = "sized"
        size_bytes = 5000

    sim, net, nodes = make_net()
    net.send(0, 1, Sized())
    assert net.stats.bytes_sent == 5000
    assert net.stats.per_type_bytes["sized"] == 5000
