"""Events per synchronization episode on a flat G-line fabric.

The register writes that land back to back in one cycle share one
event, and so do the resumes of the cores one cycle releases.  A
barrier episode therefore costs two events whatever the core count:
its writes and its release.  The library frame runs inline when the
core has no straggler delay, and without a software fallback the
library's entry overhead rides on the arrival as its delay.  Apart
from one start event per core, the only other events are the fabric's
ticks.
"""

from helpers import make_chip
from repro.collectives.config import CollectiveConfig
from repro.collectives.ops import KINDS
from repro.common.stats import CycleCat
from repro.cpu import isa
from repro.workloads.synthetic import SyntheticBarrierWorkload


def test_flat_gl_barrier_costs_two_events_per_episode():
    chip = make_chip(16, "gl")
    result = chip.run(SyntheticBarrierWorkload(iterations=2))
    net = chip.barrier_impl.networks[0]
    episodes = result.num_barriers()
    assert episodes == 8
    assert result.events_executed == \
        16 + 2 * episodes + net.active_cycles == 64
    # The folded entry overhead is still barrier time: 13 cycles per
    # barrier, every one of them attributed to the barrier phase.
    assert result.avg_barrier_latency() == 13
    assert result.total_cycles == 13 * episodes
    assert chip.stats.cycle_breakdown()[CycleCat.BARRIER] == \
        16 * result.total_cycles


def test_flat_gl_collective_costs_four_events_per_episode():
    chip = make_chip(16, "gl", collectives=CollectiveConfig(enabled=True))
    programs = [[isa.CollectiveOp(kind, value=cid) for kind in KINDS]
                for cid in range(16)]
    result = chip.run(programs)
    net = chip.collective_impl.networks[0]
    assert net.collectives_completed == len(KINDS)
    # Row 0's broadcast completes a few cycles before the other rows',
    # so an episode resumes its cores in two events, and each group
    # writes its next col_reg in one: four events an episode, less one
    # for the first, whose sixteen writes all land together.
    assert result.events_executed == \
        16 + 4 * len(KINDS) - 1 + net.active_cycles == 285
    # Every cycle of every core, entry overhead included, is barrier
    # time (results reach the rows at different cycles).
    for core in chip.cores:
        assert chip.stats.cycles[core.cid][CycleCat.BARRIER] == \
            core.finish_time
