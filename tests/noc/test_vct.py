"""Virtual cut-through network model tests."""

import random

import pytest

from repro.common.params import NocConfig
from repro.common.stats import MsgCat, StatsRegistry
from repro.noc.packet import Message
from repro.noc.vct import VCTNetwork
from repro.sim.engine import Engine


def build(rows=2, cols=2, buffer_flits=4, **kw):
    engine = Engine()
    stats = StatsRegistry(rows * cols)
    net = VCTNetwork(engine, stats,
                     NocConfig(rows=rows, cols=cols, model="vct", **kw),
                     buffer_flits=buffer_flits)
    return engine, stats, net


def send(net, src, dst, size=8, on=None, cat=MsgCat.REQUEST):
    msg = Message(src=src, dst=dst, kind="GetS", category=cat,
                  size_bytes=size, on_delivery=on)
    net.send(msg)
    return msg


def test_zero_load_latency_matches_model():
    engine, _, net = build(1, 4)
    got = []
    send(net, 0, 3, on=lambda m: got.append(engine.now))
    engine.run()
    assert got == [net.zero_load_latency(0, 3, 8)]


def test_cut_through_beats_store_and_forward():
    """Multi-flit packets overlap serialization across hops."""
    engine, _, net = build(1, 4, buffer_flits=8, link_width_bytes=8)
    got = []
    send(net, 0, 3, size=32, on=lambda m: got.append(engine.now))  # 4 flits
    engine.run()
    store_and_forward = net.config.router_latency + 3 * (
        4 + net.config.link_latency + net.config.router_latency)
    assert got[0] < store_and_forward


def test_local_delivery():
    engine, stats, net = build()
    got = []
    send(net, 1, 1, on=lambda m: got.append(engine.now))
    engine.run()
    assert got == [net.config.router_latency]
    assert stats.total_messages() == 0


def test_backpressure_stalls_upstream():
    """With tiny buffers, a burst into one link serializes and still
    delivers everything in order."""
    engine, _, net = build(1, 3, buffer_flits=1, link_width_bytes=8)
    order = []
    for k in range(6):
        send(net, 0, 2, size=8,
             on=lambda m, k=k: order.append(k))
    engine.run()
    assert order == list(range(6))
    assert net.in_flight() == 0


def test_conservation_under_random_traffic():
    """Every injected packet is delivered exactly once (no loss, no
    duplication, no deadlock) under random all-to-all traffic."""
    engine, stats, net = build(3, 3, buffer_flits=2)
    rng = random.Random(17)
    delivered = []
    injected = 0
    for t in range(200):
        src = rng.randrange(9)
        dst = rng.randrange(9)
        if src == dst:
            continue
        injected += 1
        engine.schedule_at(
            rng.randrange(100),
            lambda s=src, d=dst: send(net, s, d,
                                      size=rng.choice([8, 72]),
                                      on=lambda m: delivered.append(m)))
    engine.run()
    assert len(delivered) == injected
    assert net.in_flight() == 0
    assert all(m.arrive_time >= m.send_time for m in delivered)


def test_contention_slows_delivery_vs_idle():
    def last_arrival(n_msgs):
        engine, _, net = build(1, 2, buffer_flits=2, link_width_bytes=8)
        times = []
        for _ in range(n_msgs):
            send(net, 0, 1, size=64, on=lambda m: times.append(engine.now))
        engine.run()
        return max(times)

    assert last_arrival(5) > last_arrival(1)


def test_oversize_packet_capped_but_delivered():
    engine, stats, net = build(1, 2, buffer_flits=1, link_width_bytes=8)
    got = []
    send(net, 0, 1, size=64, on=lambda m: got.append(True))  # 8 flits > 1
    engine.run()
    assert got == [True]
    assert stats.counters["vct.oversize_packets"] == 1


def test_accounting_matches_hop_model_semantics():
    engine, stats, net = build(2, 2)
    send(net, 0, 3, size=72, cat=MsgCat.REPLY)
    engine.run()
    assert stats.messages[MsgCat.REPLY] == 1
    assert stats.hop_flits[MsgCat.REPLY] == 2  # 1 flit x 2 hops
    assert net.routers[0].injected == 1
    assert net.routers[3].ejected == 1


def test_link_utilization_counts_flits():
    engine, _, net = build(1, 2, link_width_bytes=8)
    send(net, 0, 1, size=16)  # 2 flits
    engine.run()
    util = net.link_utilization()
    assert net.links[(0, 1)].flits_carried == 2
    assert util[(0, 1)] == 2 / engine.now
    assert util[(1, 0)] == 0


def test_chip_runs_on_vct_model():
    from repro import CMP, CMPConfig
    from repro.workloads import Kernel3Workload

    cfg = CMPConfig.for_cores(4)
    cfg = cfg.with_(noc=NocConfig(rows=2, cols=2, model="vct"))
    chip = CMP(cfg, barrier="dsw")
    wl = Kernel3Workload(n=64, iterations=3)
    res = chip.run(wl)
    wl.verify(chip)
    assert res.total_messages() > 0


def test_model_choice_preserves_conclusion():
    """GL beats DSW under either NoC model (robustness ablation)."""
    from repro import CMP, CMPConfig
    from repro.workloads import SyntheticBarrierWorkload

    cycles = {}
    for model in ("hop", "vct"):
        for barrier in ("dsw", "gl"):
            cfg = CMPConfig.for_cores(4)
            cfg = cfg.with_(noc=NocConfig(rows=2, cols=2, model=model))
            chip = CMP(cfg, barrier=barrier)
            res = chip.run(SyntheticBarrierWorkload(iterations=10))
            cycles[(model, barrier)] = res.total_cycles
    assert cycles[("hop", "gl")] < cycles[("hop", "dsw")]
    assert cycles[("vct", "gl")] < cycles[("vct", "dsw")]
    # GL is network-independent: identical cycles under both models.
    assert cycles[("hop", "gl")] == cycles[("vct", "gl")]
