"""Mesh network timing and accounting tests."""

from repro.common.params import NocConfig
from repro.common.stats import MsgCat, StatsRegistry
from repro.noc.network import Network
from repro.noc.packet import Message
from repro.sim.engine import Engine


def build(rows=2, cols=2, **kw):
    engine = Engine()
    stats = StatsRegistry(rows * cols)
    net = Network(engine, stats, NocConfig(rows=rows, cols=cols, **kw))
    return engine, stats, net


def send(net, src, dst, kind="GetS", cat=MsgCat.REQUEST, size=8, on=None):
    msg = Message(src=src, dst=dst, kind=kind, category=cat,
                  size_bytes=size, on_delivery=on)
    net.send(msg)
    return msg


def test_zero_load_latency_formula():
    engine, stats, net = build(2, 2)
    got = []
    msg = send(net, 0, 3, on=lambda m: got.append(engine.now))
    engine.run()
    # 2 hops; per hop: flits(1) + link(1) + router(3); + injection router(3)
    assert got == [net.zero_load_latency(0, 3, 8)]
    assert got == [3 + 2 * (1 + 1 + 3)]
    assert msg.hops == 2


def test_larger_messages_serialize_longer():
    engine, _, net = build(2, 2, link_width_bytes=8)
    times = {}
    send(net, 0, 1, size=8, on=lambda m: times.setdefault("small",
                                                          engine.now))
    engine.run()
    engine2, _, net2 = build(2, 2, link_width_bytes=8)
    send(net2, 0, 1, size=64, on=lambda m: times.setdefault("big",
                                                            engine2.now))
    engine2.run()
    assert times["big"] == times["small"] + 7  # 8 flits vs 1


def test_contention_serializes_same_link():
    engine, _, net = build(1, 2, link_width_bytes=8)
    arrivals = []
    for _ in range(3):
        send(net, 0, 1, size=64, on=lambda m: arrivals.append(engine.now))
    engine.run()
    assert len(arrivals) == 3
    # Each 8-flit message occupies the link for 8 cycles; arrivals are
    # spaced by at least the serialization time.
    assert arrivals[1] - arrivals[0] >= 8
    assert arrivals[2] - arrivals[1] >= 8


def test_contention_disabled_is_parallel():
    engine, _, net = build(1, 2, link_width_bytes=8,
                           model_contention=False)
    arrivals = []
    for _ in range(3):
        send(net, 0, 1, size=64, on=lambda m: arrivals.append(engine.now))
    engine.run()
    assert arrivals[0] == arrivals[1] == arrivals[2]


def test_local_delivery_not_counted_as_traffic():
    engine, stats, net = build(2, 2)
    got = []
    send(net, 1, 1, on=lambda m: got.append(engine.now))
    engine.run()
    assert got == [net.config.router_latency]
    assert stats.total_messages() == 0
    assert stats.counters["noc.local_deliveries"] == 1


def test_category_accounting():
    engine, stats, net = build(2, 2)
    send(net, 0, 1, cat=MsgCat.REQUEST)
    send(net, 0, 3, cat=MsgCat.REPLY, size=72)
    send(net, 3, 0, cat=MsgCat.COHERENCE)
    engine.run()
    assert stats.messages[MsgCat.REQUEST] == 1
    assert stats.messages[MsgCat.REPLY] == 1
    assert stats.messages[MsgCat.COHERENCE] == 1
    assert stats.hop_flits[MsgCat.REPLY] == 2  # 1 flit x 2 hops


def test_router_accounting():
    engine, _, net = build(1, 3)
    send(net, 0, 2)
    engine.run()
    assert net.routers[0].injected == 1
    assert net.routers[1].forwarded == 1
    assert net.routers[2].ejected == 1
    assert net.routers[1].traversals == 1


def test_link_utilization():
    engine, _, net = build(1, 2)
    send(net, 0, 1)
    engine.run()
    util = net.link_utilization()
    # One 1-flit message delivered at cycle 3 + (1 + 1 + 3) = 8.
    assert util[(0, 1)] == net.links[(0, 1)].flits_carried / engine.now
    assert util[(0, 1)] == 1 / 8
    assert util[(1, 0)] == 0


def test_fifo_ordering_same_path():
    """Two messages on the same src->dst path arrive in send order."""
    engine, _, net = build(1, 4, link_width_bytes=8)
    order = []
    send(net, 0, 3, size=64, on=lambda m: order.append("first"))
    send(net, 0, 3, size=8, on=lambda m: order.append("second"))
    engine.run()
    assert order == ["first", "second"]
