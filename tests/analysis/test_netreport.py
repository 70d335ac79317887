"""Network utilization report tests."""

from helpers import make_chip, run_uniform
from repro.analysis.netreport import (hotspot_table, link_stats,
                                      tile_heatmap, total_flit_hops)
from repro.cpu import isa


def run_traffic(barrier="csw", cores=4):
    chip = make_chip(cores, barrier)
    run_uniform(chip, lambda c: iter([isa.BarrierOp(),
                                      isa.BarrierOp()]))
    return chip


def test_link_stats_sorted_and_consistent():
    chip = run_traffic()
    stats = link_stats(chip.network)
    flits = [f for _n, f, _u in stats]
    assert flits == sorted(flits, reverse=True)
    # A link carries one flit per cycle: busy fraction = flits / cycles.
    assert all(u == f / chip.network.now for _n, f, u in stats)
    assert sum(flits) == total_flit_hops(chip.network)
    assert sum(flits) > 0


def test_csw_creates_hotspot_around_home_tile():
    chip = run_traffic("csw")
    stats = link_stats(chip.network)
    # Centralized barrier: traffic concentrates -- the busiest link
    # carries far more than the median link.
    busiest = stats[0][1]
    median = stats[len(stats) // 2][1]
    assert busiest > 2 * max(median, 1)


def test_gl_leaves_mesh_untouched():
    chip = run_traffic("gl")
    assert total_flit_hops(chip.network) == 0
    heat = tile_heatmap(chip.network)
    assert "@" not in heat.splitlines()[1]  # no hot tile row... peak==1


def test_heatmap_shape():
    chip = run_traffic("dsw", cores=8)
    heat = tile_heatmap(chip.network)
    lines = heat.splitlines()
    assert len(lines) == 1 + chip.config.noc.rows + 1
    assert "@" in heat  # some tile is the hottest


def test_hotspot_table_renders():
    chip = run_traffic("dsw")
    table = hotspot_table(chip.network, top=5)
    assert "Utilization" in table
    assert "->" in table
