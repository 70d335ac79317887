"""Wrap-around boundary tests for the multiplexed barrier contexts.

The time-multiplexing slot arithmetic and the space-multiplexing id
arithmetic both contain modular/affine index computations whose failure
mode is silent: a mis-aligned slot costs correctness of the latency
model, an overflowing sub-mesh wraps core ids onto the next mesh row.
These tests pin the boundaries and cross-check the slot-granularity
latency against the verify model's proven completion bound.
"""

import pytest

from repro.common.errors import ConfigError
from repro.common.params import GLineConfig
from repro.common.stats import StatsRegistry
from repro.gline import GLineBarrierNetwork, submesh_core_ids
from repro.sim.engine import Engine
from repro.verify import GLBarrierModel

from helpers import barrier_slots


def build(rows=2, cols=2, num_slots=2, **cfg):
    engine = Engine()
    stats = StatsRegistry(rows * cols)
    return engine, barrier_slots(engine, stats, rows, cols,
                                 GLineConfig(**cfg), num_slots)


def run_arrivals(engine, ctx, times):
    releases = {}
    for cid, t in enumerate(times):
        engine.schedule_at(t, lambda c=cid: ctx.arrive(
            c, lambda c=c: releases.__setitem__(c, engine.now)))
    engine.run()
    return releases


# ---------------------------------------------------------------------- #
# Slot alignment at the wrap points
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("num_slots", [2, 3, 4])
@pytest.mark.parametrize("slot", [0, 1])
def test_exact_slot_hit_and_just_missed(num_slots, slot):
    """An arrival whose write lands exactly on the context's slot waits
    zero cycles; one cycle later it waits a full period minus one --
    the two edges of the modular alignment."""
    period = num_slots  # line_latency == 1
    write = GLineConfig().barreg_write_cycles
    for offset, extra_wait in [(0, 0), (1, period - 1)]:
        engine, ctxs = build(2, 2, num_slots=num_slots)
        ctx = ctxs[slot]
        # Time the *last* arrival so its write becomes visible at
        # slot + offset (mod period); earlier cores arrive well before.
        base = 5 * period + slot - write + offset
        run_arrivals(engine, ctx, [0, 0, 0, base])
        sample = ctx.samples[0]
        # Visibility is always realigned into the context's slot.
        assert sample.last_arrival % period == slot
        assert sample.last_arrival == base + write + extra_wait
        # And the synchronization itself always costs 3P + 1 from there.
        assert sample.latency_after_last_arrival == 3 * period + 1


@pytest.mark.parametrize("shift", [1, 7, 10**9])
def test_phase_invariance_across_periods(shift):
    """Shifting the whole schedule by any number of cycles -- including
    far beyond any period multiple -- changes release times by exactly
    the schedule realignment, never the synchronization latency."""
    period = 3
    engine_a, ctxs_a = build(2, 2, num_slots=period)
    run_arrivals(engine_a, ctxs_a[1], [0, 1, 2, 3])
    engine_b, ctxs_b = build(2, 2, num_slots=period)
    run_arrivals(engine_b, ctxs_b[1], [shift, shift + 1, shift + 2,
                                       shift + 3])
    a, b = ctxs_a[1].samples[0], ctxs_b[1].samples[0]
    assert a.latency_after_last_arrival == b.latency_after_last_arrival
    assert b.last_arrival % period == a.last_arrival % period == 1


def test_episodes_straddling_slot_wraps():
    """Back-to-back episodes whose arrivals land on period-1, period and
    period+1 cycles all complete with the same 3P + 1 latency."""
    period = 2
    engine, ctxs = build(2, 2, num_slots=period)
    ctx = ctxs[0]
    releases = run_arrivals(engine, ctx, [period - 1, period,
                                          period + 1, period + 2])
    assert len(releases) == 4
    first_release = max(releases.values())
    for cid in range(4):
        engine.schedule_at(first_release + cid, lambda c=cid: ctx.arrive(
            c, lambda: None))
    engine.run()
    assert ctx.barriers_completed == 2
    for sample in ctx.samples:
        assert sample.latency_after_last_arrival == 3 * period + 1
        assert sample.last_arrival % period == 0


# ---------------------------------------------------------------------- #
# Agreement with the verify model at slot granularity
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 3)])
@pytest.mark.parametrize("num_slots", [1, 2, 3])
def test_slot_latency_matches_model_bound(shape, num_slots):
    """The verify model proves release exactly ``completion_bound``
    ticks after the last arrival.  A slot context is that same machine
    with one tick per period and the release consumed in one cycle, so
    its latency must be ``(bound - 1) * P + 1`` -- which is 3P + 1 for
    the proven bound of 4 (and exactly 4 at P == 1)."""
    rows, cols = shape
    model = GLBarrierModel(rows, cols)
    engine, ctxs = build(rows, cols, num_slots=num_slots)
    run_arrivals(engine, ctxs[0], [0] * (rows * cols))
    expected = (model.completion_bound - 1) * num_slots + 1
    assert ctxs[0].samples[0].latency_after_last_arrival == expected


# ---------------------------------------------------------------------- #
# Sub-mesh id arithmetic at the column boundary
# ---------------------------------------------------------------------- #
def test_submesh_at_right_edge_is_exact():
    engine, stats = Engine(), StatsRegistry(16)
    net = GLineBarrierNetwork(engine, stats, 2, 2, core_ids=submesh_core_ids(
        mesh_cols=4, row0=1, col0=2, rows=2, cols=2))
    assert net.core_ids == [6, 7, 10, 11]


def test_submesh_column_overflow_rejected():
    """col0 + cols past the mesh edge must raise, not wrap the core ids
    onto the next mesh row."""
    with pytest.raises(ConfigError):
        submesh_core_ids(mesh_cols=4, row0=0, col0=3, rows=2, cols=2)
    with pytest.raises(ConfigError):
        submesh_core_ids(mesh_cols=4, row0=0, col0=-1, rows=2, cols=2)
