"""Example smoke tests and miscellaneous coverage."""

import subprocess
import sys
from pathlib import Path

import pytest

from helpers import make_chip
from repro.cpu import isa
from repro.workloads.base import vector_sweep

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


@pytest.mark.parametrize("script,args", [
    ("quickstart.py", ["4"]),
    ("custom_workload.py", []),
])
def test_example_runs(script, args):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_vector_sweep_fragment():
    chip = make_chip(2)
    a = chip.allocator.alloc_array(8)
    b = chip.allocator.alloc_array(8)
    chip.funcmem.store_array(a, list(range(8)))

    def prog():
        yield from vector_sweep([a], 0, 8, stores=[b], flops_per_elem=2)

    progs = [prog(), None]
    res = chip.run(progs)
    assert res.total_cycles > 0
    # vector_sweep stores the index value.
    assert chip.funcmem.load_array(b, 8) == list(range(8))


def test_timemux_single_slot_equals_flat():
    """One slot is the degenerate case: a flat network, 4 cycles."""
    from helpers import barrier_slots
    from repro.common.stats import StatsRegistry
    from repro.sim.engine import Engine

    engine = Engine()
    ctxs = barrier_slots(engine, StatsRegistry(4), 2, 2, slots=1)
    assert [ctx.slot for ctx in ctxs] == [None]
    for cid in range(4):
        ctxs[0].arrive(cid, lambda: None)
    engine.run()
    assert ctxs[0].samples[0].latency_after_last_arrival == 4


def test_hierarchical_substats_isolated():
    """Cluster-level barrier samples must not pollute chip-level stats."""
    from repro.common.params import GLineConfig
    from repro.common.stats import StatsRegistry
    from repro.gline.hierarchical import HierarchicalGLineBarrier
    from repro.sim.engine import Engine

    engine = Engine()
    stats = StatsRegistry(64)
    net = HierarchicalGLineBarrier(engine, stats, 8, 8, GLineConfig())
    for cid in range(64):
        net.arrive(cid, lambda: None)
    engine.run()
    assert net.barriers_completed == 1
    assert len(net.samples) == 1
    # The shared registry got exactly one 'gline.barriers' bump from the
    # top-level episode, none from the five sub-networks.
    assert stats.counters["gline.barriers"] == 1


def test_fig_charts_from_live_results():
    from repro.analysis.figures import fig6_chart, fig7_chart
    from repro.experiments import run_fig6, run_fig7
    from repro.workloads import Kernel3Workload

    wl = {"KERN3": Kernel3Workload(n=64, iterations=4)}
    f6 = run_fig6(num_cores=4, workloads=wl)
    f7 = run_fig7(num_cores=4, workloads=wl)
    c6 = fig6_chart(f6.comparisons)
    c7 = fig7_chart(f7.comparisons)
    assert "KERN3/DSW" in c6 and "KERN3/GL" in c6
    assert "barrier" in c6 and "coherence" in c7


def test_trailing_idle_core_attribution():
    """A core that finishes early contributes no phantom cycles."""
    chip = make_chip(2, "gl")
    progs = [iter([isa.Compute(10)]), iter([isa.Compute(500)])]
    res = chip.run(progs)
    assert res.total_cycles == 500
    from repro.common.stats import CycleCat
    assert chip.stats.core_cycle_breakdown(0)[CycleCat.BUSY] == 10
