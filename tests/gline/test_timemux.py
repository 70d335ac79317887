"""Time-multiplexed barrier context tests."""

from collections import Counter

from repro.common.stats import StatsRegistry
from repro.cpu import isa
from repro.gline import total_wires
from repro.gline.barrier import GLBarrier
from repro.obs import Observability
from repro.obs.events import GL_ARRIVE
from repro.sim.engine import Engine

from helpers import barrier_slots, run_uniform
from repro import CMP, CMPConfig


def build(rows=2, cols=2, num_slots=2):
    engine = Engine()
    stats = StatsRegistry(rows * cols)
    return engine, barrier_slots(engine, stats, rows, cols,
                                 slots=num_slots)


def arrive_all(engine, ctx, n, times=None):
    releases = {}
    times = times or [0] * n
    for cid, t in enumerate(times):
        engine.schedule_at(t, lambda c=cid: ctx.arrive(
            c, lambda c=c: releases.__setitem__(c, engine.now)))
    engine.run()
    return releases


def test_latency_is_3p_plus_1():
    # Three inter-stage hand-offs of one slot period each + the 1-cycle
    # release consumption: 3*P + 1 (reduces to 4 when P == 1).
    engine, ctxs = build(2, 2, num_slots=2)
    arrive_all(engine, ctxs[0], 4)
    assert ctxs[0].samples[0].latency_after_last_arrival == 7


def test_three_slots():
    engine, ctxs = build(2, 2, num_slots=3)
    arrive_all(engine, ctxs[1], 4)
    assert ctxs[1].samples[0].latency_after_last_arrival == 10


def test_slot_alignment_of_arrivals():
    """Context k's bar_reg writes become visible only in slot-k cycles."""
    engine, ctxs = build(2, 2, num_slots=2)
    releases = arrive_all(engine, ctxs[1], 4, times=[0, 1, 2, 3])
    # All released together, after alignment + 8-cycle synchronization.
    assert len(set(releases.values())) == 1


def test_two_contexts_interleave_on_shared_wires():
    engine, ctxs = build(2, 2, num_slots=2)
    done = []
    for cid in range(4):
        ctxs[0].arrive(cid, lambda c=cid: done.append((0, c)))
        ctxs[1].arrive(cid, lambda c=cid: done.append((1, c)))
    engine.run()
    assert len(done) == 8
    assert ctxs[0].barriers_completed == 1
    assert ctxs[1].barriers_completed == 1


def test_physical_wire_budget_is_single_network():
    _, ctxs = build(4, 4, num_slots=4)
    assert total_wires(ctxs) == 10  # one 16-core network, not four


def test_invalid_slot_count():
    # No slot count is invalid: below 2 there is nothing to share, and
    # the builder makes one plain context, as a collective config with
    # time_slots=0 asks for.
    _, ctxs = build(2, 2, num_slots=0)
    assert [(ctx.name, ctx.slot) for ctx in ctxs] == [("gltm", None)]


def timemux_chip():
    """A 4-core chip whose GL barrier runs on two slot contexts."""
    cfg = CMPConfig.for_cores(4)
    chip = CMP(cfg, barrier="gl")
    ctxs = barrier_slots(chip.engine, chip.stats, 2, 2, cfg.gline)
    chip.barrier_impl = GLBarrier(ctxs, cfg.gline)
    for tile in chip.tiles:
        tile.core.barrier_binding = chip.barrier_impl
    return chip, ctxs


def test_on_chip_via_glbarrier():
    chip, ctxs = timemux_chip()

    def prog(cid):
        yield isa.BarrierOp(0)
        yield isa.BarrierOp(1)
        yield isa.BarrierOp(0)

    run_uniform(chip, prog)
    assert ctxs[0].barriers_completed == 2
    assert ctxs[1].barriers_completed == 1
    assert chip.stats.num_barriers() == 3


def test_observed_chip_sees_every_slot():
    # An observed chip counts and traces a time-multiplexed barrier's
    # episodes as it does a flat one's.
    chip, _ = timemux_chip()
    obs = Observability.full(chip.num_cores)
    chip.set_obs(obs)
    result = run_uniform(chip, lambda cid: iter([isa.BarrierOp(0),
                                                 isa.BarrierOp(1)]))
    barriers = chip.stats.num_barriers()
    assert barriers == 2
    assert result.metrics["counters"].get("gline.episodes") == barriers
    arrivals = Counter(e.detail["core"] for e in obs.tracer.events
                       if e.kind == GL_ARRIVE)
    assert arrivals == {cid: barriers for cid in range(chip.num_cores)}
