"""Protocol edge-path tests: error branches, banking, capacity churn."""

from dataclasses import replace

import pytest

from helpers import MemHarness, make_chip
from repro.common.errors import ProtocolError
from repro.common.stats import StatsRegistry
from repro.mem.memory import MemoryController
from repro.mem.protocol import ALL_KINDS, kind_table
from repro.noc.packet import Message
from repro.common.stats import MsgCat
from repro.sim.engine import Engine


def make_msg(kind, line, src=0, dst=0):
    return Message(src=src, dst=dst, kind=kind, category=MsgCat.COHERENCE,
                   size_bytes=8, payload={"line": line})


def test_home_rejects_unexpected_kind():
    chip = make_chip(2)
    with pytest.raises(ProtocolError):
        chip.tiles[0].home.receive(make_msg("DataS", 0))


def test_home_rejects_stray_invack():
    chip = make_chip(2)
    with pytest.raises(ProtocolError):
        chip.tiles[0].home.receive(make_msg("InvAck", 0))


def test_home_rejects_stray_wbdata():
    chip = make_chip(2)
    with pytest.raises(ProtocolError):
        chip.tiles[0].home.receive(make_msg("WbData", 0))


def test_l1_rejects_unexpected_kind():
    chip = make_chip(2)
    with pytest.raises(ProtocolError):
        chip.tiles[0].l1.receive(make_msg("GetS", 0))


def test_l1_rejects_putack_without_writeback():
    chip = make_chip(2)
    with pytest.raises(ProtocolError):
        chip.tiles[0].l1.receive(make_msg("PutAck", 0))


def test_stale_putm_counted():
    """Eviction-vs-forward crossing: the stale PutM path is exercised by
    forcing capacity churn on shared dirty lines."""
    chip = make_chip(2)
    h = MemHarness(chip)
    l1_sets = chip.config.l1.num_sets
    assoc = chip.config.l1.assoc
    set_stride = chip.num_cores * l1_sets * 64
    addrs = [(1 + k) * set_stride + 64 for k in range(assoc + 2)]
    # Tile 0 dirties lines until eviction, tile 1 steals them back.
    for round_ in range(3):
        for a in addrs:
            h.store(0, a, round_)
        for a in addrs:
            h.store(1, a, round_ + 100)
    # All values correct despite the churn.
    for a in addrs:
        assert h.load(0, a) == 2 + 100
    assert chip.stats.counters["dir.putm_fresh"] > 0


def test_banked_memory_serializes():
    engine = Engine()
    stats = StatsRegistry(1)
    mem = MemoryController(engine, stats, 0, latency=100, num_banks=1)
    done = []
    mem.access(0, lambda: done.append(engine.now))
    mem.access(64, lambda: done.append(engine.now))
    engine.run()
    assert done == [100, 200]  # one bank: strictly serialized


def test_banked_memory_parallel_across_banks():
    engine = Engine()
    stats = StatsRegistry(1)
    mem = MemoryController(engine, stats, 0, latency=100, num_banks=2)
    done = []
    mem.access(0, lambda: done.append(engine.now))     # bank 0
    mem.access(64, lambda: done.append(engine.now))    # bank 1
    engine.run()
    assert done == [100, 100]


def test_unbanked_memory_unlimited():
    engine = Engine()
    stats = StatsRegistry(1)
    mem = MemoryController(engine, stats, 0, latency=100, num_banks=0)
    done = []
    for k in range(5):
        mem.access(k * 64, lambda: done.append(engine.now))
    engine.run()
    assert done == [100] * 5
    assert mem.accesses == 5


def test_kind_table_is_built_once_per_noc_config():
    noc = make_chip(4).config.noc
    kinds = kind_table(noc)
    assert kind_table(replace(noc)) is kinds
    assert kinds["GetS"] == (MsgCat.REQUEST, noc.ctrl_msg_bytes)
    assert kinds["DataE"] == (MsgCat.REPLY, noc.data_msg_bytes)
    assert kinds["PutM"] == (MsgCat.COHERENCE, noc.data_msg_bytes)
    assert set(kinds) == set(ALL_KINDS)
    with pytest.raises(TypeError):
        kinds["GetS"] = (MsgCat.REPLY, 0)
