"""Warm-up / stats-reset tests."""

from helpers import make_chip
from repro.cpu import isa
from repro.workloads import Kernel3Workload, SyntheticBarrierWorkload


def test_reset_stats_clears_measurements_keeps_state():
    chip = make_chip(4, "gl")
    data = chip.allocator.alloc_line()

    def prog(cid):
        yield isa.Store(data + 8 * cid, cid)
        yield isa.BarrierOp()

    chip.run([prog(c) for c in range(4)])
    assert chip.stats.num_barriers() == 1
    chip.reset_stats()
    assert chip.stats.num_barriers() == 0
    assert chip.stats.total_messages() == 0
    # Architectural state survives (the stores' final owner still caches
    # the line; all four cores wrote the same line so the last one owns it).
    assert chip.funcmem.load(data + 8) == 1
    assert any(t.l1.array.occupancy() > 0 for t in chip.tiles)


def test_run_with_warmup_measures_only_second_pass():
    chip = make_chip(4, "gl")
    result = chip.run_with_warmup(
        SyntheticBarrierWorkload(iterations=10),   # 40 barriers, discarded
        SyntheticBarrierWorkload(iterations=5))    # 20 barriers, measured
    assert result.num_barriers() == 20
    assert chip.stats.num_barriers() == 20


def test_run_with_warmup_keeps_sense_state_consistent():
    """Software barriers carry per-core sense state across the reset; the
    measured pass must still synchronize correctly."""
    chip = make_chip(4, "dsw")
    result = chip.run_with_warmup(
        SyntheticBarrierWorkload(iterations=3),
        SyntheticBarrierWorkload(iterations=4))
    assert result.num_barriers() == 16


def test_warm_caches_reduce_measured_misses():
    """Warming with a data workload leaves its lines resident; a measured
    pass touching the same amount of *new* data sees the same cold misses,
    but the warmed chip demonstrates reset-survivable cache state."""
    chip = make_chip(4, "gl")
    chip.run(Kernel3Workload(n=256, iterations=2))
    occupied = sum(t.l1.array.occupancy() for t in chip.tiles)
    chip.reset_stats()
    assert sum(t.l1.array.occupancy() for t in chip.tiles) == occupied


def test_reset_stats_routes_memory_counters_to_new_registry():
    """After the reset, every component counts into the new registry: the
    warm-up registry keeps exactly the warm-up's counts (a fresh chip
    running the warm-up alone gives them), and the measured registry
    sees L1, directory and L2 traffic.  A component holding on to the
    old ``stats`` or ``stats.counters`` would fail one side or the
    other."""
    def warmup():
        return SyntheticBarrierWorkload(iterations=2)

    alone = make_chip(4, "dsw")
    alone.run(warmup())
    chip = make_chip(4, "dsw")
    warm = chip.stats
    chip.run_with_warmup(warmup(), Kernel3Workload(n=256, iterations=1))
    assert chip.stats is not warm
    assert warm.to_dict() == alone.stats.to_dict()
    measured = chip.stats.counters
    for name in ("l1.load_hits", "dir.gets", "l2.hits"):
        assert measured[name] > 0, name
