"""Set-associative cache array tests."""

import pytest

from helpers import make_chip
from repro.common.errors import SimulationError
from repro.common.params import CacheConfig
from repro.mem.cache import CacheArray, MESI


def small_cache(assoc=2, sets=2):
    return CacheArray(CacheConfig(size_bytes=assoc * sets * 64,
                                  assoc=assoc, line_bytes=64))


def line_for_set(cache, set_idx, k):
    """k-th distinct line address mapping to *set_idx*."""
    return (set_idx + k * cache.num_sets) * 64


def test_insert_and_lookup():
    c = small_cache()
    a = line_for_set(c, 0, 0)
    assert c.lookup(a) is None
    c.insert(a, MESI.S)
    entry = c.lookup(a)
    assert entry is not None and entry.state is MESI.S


def test_probe_does_not_touch_lru():
    c = small_cache(assoc=2)
    a, b, d = (line_for_set(c, 0, k) for k in range(3))
    c.insert(a, MESI.S)
    c.insert(b, MESI.S)
    c.probe(a)            # must NOT refresh a
    victim = c.insert(d, MESI.S)
    assert victim.line_addr == a


def test_lru_eviction_order():
    c = small_cache(assoc=2)
    a, b, d = (line_for_set(c, 0, k) for k in range(3))
    c.insert(a, MESI.S)
    c.insert(b, MESI.S)
    c.lookup(a)           # a becomes MRU
    victim = c.insert(d, MESI.S)
    assert victim.line_addr == b
    assert c.lookup(a) is not None
    assert c.lookup(b) is None


def test_victim_carries_state():
    c = small_cache(assoc=1)
    a, b = (line_for_set(c, 0, k) for k in range(2))
    c.insert(a, MESI.M)
    victim = c.insert(b, MESI.S)
    assert victim.state is MESI.M
    assert victim.dirty


def test_insert_existing_updates_in_place():
    c = small_cache()
    a = line_for_set(c, 0, 0)
    c.insert(a, MESI.S)
    assert c.insert(a, MESI.M) is None
    assert c.probe(a) is MESI.M
    assert c.occupancy() == 1


def test_different_sets_do_not_conflict():
    c = small_cache(assoc=1, sets=2)
    a0 = line_for_set(c, 0, 0)
    a1 = line_for_set(c, 1, 0)
    c.insert(a0, MESI.S)
    assert c.insert(a1, MESI.S) is None
    assert c.occupancy() == 2


def test_set_state_and_invalidate():
    c = small_cache()
    a = line_for_set(c, 0, 0)
    c.insert(a, MESI.E)
    c.set_state(a, MESI.S)
    assert c.probe(a) is MESI.S
    assert c.invalidate(a) is MESI.S
    assert c.probe(a) is MESI.I
    assert c.invalidate(a) is MESI.I  # idempotent


def test_set_state_to_I_drops_line():
    c = small_cache()
    a = line_for_set(c, 0, 0)
    c.insert(a, MESI.M)
    c.set_state(a, MESI.I)
    assert c.lookup(a) is None


def test_set_state_absent_raises():
    c = small_cache()
    with pytest.raises(SimulationError):
        c.set_state(line_for_set(c, 0, 0), MESI.M)


def test_insert_invalid_state_raises():
    c = small_cache()
    with pytest.raises(SimulationError):
        c.insert(0, MESI.I)


def test_mesi_properties():
    assert MESI.M.exclusive and MESI.E.exclusive
    assert not MESI.S.exclusive and not MESI.I.exclusive
    assert MESI.S.valid and not MESI.I.valid


def test_resident_lines_and_counters():
    c = small_cache()
    a = line_for_set(c, 0, 0)
    b = line_for_set(c, 1, 0)
    c.insert(a, MESI.S)
    c.insert(b, MESI.E)
    assert c.resident_lines() == sorted([a, b])
    assert c.evictions == 0
    d, e = line_for_set(c, 0, 1), line_for_set(c, 0, 2)
    c.insert(d, MESI.S)
    assert c.insert(e, MESI.S).line_addr == a
    assert c.resident_lines() == sorted([b, d, e])
    assert c.evictions == 1


def test_l2_slice_reaches_every_set():
    """A home slice holds only the lines homed at its tile, so its set
    index must skip the tile-interleaving bits: a full slice's worth of
    lines homed at one tile fits without a single eviction."""
    chip = make_chip(16)
    l2 = chip.tiles[0].home.l2
    lines = [k * chip.num_cores * 64
             for k in range(l2.num_sets * l2.assoc)]
    assert {chip.amap.home_of(line) for line in lines} == {0}
    assert all(l2.insert(line, MESI.E) is None for line in lines)
    assert l2.evictions == 0
    assert l2.occupancy() == len(lines)
