"""Watchdog, bounded retry and GL -> software failover."""

from dataclasses import replace

import pytest

from helpers import barrier_slots, make_chip
from repro import CMP, CMPConfig
from repro.common.errors import DeadlockError
from repro.common.params import GLineConfig
from repro.common.stats import StatsRegistry
from repro.faults import FAILOVER, FaultPlan
from repro.gline.hierarchical import HierarchicalGLineBarrier
from repro.gline.network import GLineBarrierNetwork
from repro.obs import Observability, RingTracer
from repro.obs import events as obs_ev
from repro.sim.engine import Engine
from repro.workloads import StressWorkload
from repro.workloads.synthetic import SyntheticBarrierWorkload

HARDENED = dict(watchdog_budget=32, watchdog_retries=2)


def build(rows, cols, **cfg):
    engine = Engine()
    stats = StatsRegistry(rows * cols)
    net = GLineBarrierNetwork(engine, stats, rows, cols,
                              GLineConfig(**{**HARDENED, **cfg}))
    return engine, stats, net


def arrive_all(engine, net, times=None):
    """Arrive every core; returns ``{cid: resume-args}`` -- ``()`` for a
    normal hardware release, ``(FAILOVER,)`` for a failover bounce."""
    outcomes = {}
    # Absolute times; default "now" so repeated rounds work after armed
    # watchdog timers have advanced the clock.
    times = times or [engine.now] * net.num_cores
    for cid, t in enumerate(times):
        engine.schedule_at(t, lambda c=cid: net.arrive(
            c, lambda *a, c=c: outcomes.__setitem__(c, a)))
    engine.run()
    return outcomes


# ---------------------------------------------------------------------- #
# Fault-free hardened runs must stay clean (watchdog never fires)
# ---------------------------------------------------------------------- #
def test_fault_free_hardened_run_is_clean():
    engine, _, net = build(2, 2)
    outcomes = arrive_all(engine, net)
    assert all(outcomes[c] == () for c in range(4))
    assert (net.detections, net.retries, net.failovers) == (0, 0, 0)
    assert not net.quarantined
    assert net.barriers_completed == 1


def test_fault_free_hardened_back_to_back_barriers():
    engine, _, net = build(3, 3)
    for _ in range(5):
        outcomes = arrive_all(engine, net)
        assert all(a == () for a in outcomes.values())
    assert net.barriers_completed == 5
    assert (net.detections, net.retries, net.failovers) == (0, 0, 0)


def test_fault_free_hierarchical_under_watchdog():
    # Satellite (d): the >7x7 hierarchical composition, hardened.
    engine = Engine()
    stats = StatsRegistry(64)
    net = HierarchicalGLineBarrier(engine, stats, 8, 8,
                                   GLineConfig(**HARDENED))
    outcomes = arrive_all(engine, net)
    assert all(outcomes[c] == () for c in range(64))
    assert (net.detections, net.retries, net.failovers) == (0, 0, 0)
    assert not net.quarantined
    assert net.barriers_completed == 1


def test_fault_free_timemux_under_watchdog():
    # Satellite (d): time-multiplexed slot contexts, hardened.  The slot
    # period stretches every stage, so give the watchdog headroom.
    engine = Engine()
    stats = StatsRegistry(4)
    ctxs = barrier_slots(engine, stats, 2, 2,
                         GLineConfig(watchdog_budget=64, watchdog_retries=2))
    for ctx in ctxs:
        outcomes = arrive_all(engine, ctx)
        assert all(outcomes[c] == () for c in range(4))
        assert (ctx.detections, ctx.retries, ctx.failovers) == (0, 0, 0)
        assert not ctx.quarantined


# ---------------------------------------------------------------------- #
# Stuck-at faults: detect, retry, fail over
# ---------------------------------------------------------------------- #
def test_stuck_at_zero_gather_line_fails_over():
    """A gather line stuck low stalls the count; the watchdog retries the
    configured number of times, then quarantines the network."""
    engine, stats, net = build(2, 2)
    net.row_tx[1].stuck = 0
    outcomes = arrive_all(engine, net)
    assert all(outcomes[c] == (FAILOVER,) for c in range(4))
    assert net.quarantined
    assert (net.detections, net.retries, net.failovers) == (3, 2, 1)
    assert stats.counters["faults.watchdog.detections"] == 3
    assert stats.counters["faults.watchdog.retries"] == 2
    assert stats.counters["faults.watchdog.failovers"] == 1


def test_stuck_at_one_gather_line_is_overshoot_detected():
    """Stuck high overcounts the S-CSMA read-out; hardened masters treat
    count > num_slaves as a fault instead of releasing early."""
    engine, _, net = build(2, 2)
    net.row_tx[0].stuck = 1
    outcomes = arrive_all(engine, net)
    assert all(outcomes[c] == (FAILOVER,) for c in range(4))
    assert net.failovers == 1


def test_stuck_at_one_release_line_is_guarded():
    """A release line going high without its master driving it would
    release cores early; the guard masks it and flags the episode."""
    engine, stats, net = build(2, 2)
    net.row_rel[1].stuck = 1
    outcomes = arrive_all(engine, net)
    assert all(outcomes[c] == (FAILOVER,) for c in range(4))
    assert stats.counters["faults.gline.spurious_releases"] >= 1
    assert net.quarantined


def test_transient_fault_healed_by_retry():
    """A stall that clears before the watchdog's retry completes in
    hardware.  Note the retry is *required* even though the wire healed:
    the slave's one-shot arrival signal was swallowed by the dead wire,
    and only the retry's FSM reset makes it re-signal."""
    engine, _, net = build(2, 2)
    net.row_tx[1].stuck = 0
    # All arrived at t=1, watchdog fires at t=33; the "wire" heals before
    # that, so the first retry's re-gather goes through.
    engine.schedule_at(10, lambda: setattr(net.row_tx[1], "stuck", None))
    outcomes = arrive_all(engine, net)
    assert all(outcomes[c] == () for c in range(4))
    assert net.detections == 1
    assert net.retries == 1
    assert net.failovers == 0
    assert not net.quarantined
    assert net.barriers_completed == 1


def test_completed_episode_leaves_stale_timer_silent():
    """The armed watchdog event always outlives a successful episode; its
    token must be stale by then, so it expires without a detection."""
    engine, _, net = build(2, 2)
    outcomes = arrive_all(engine, net)
    assert all(a == () for a in outcomes.values())
    # The heap drained *through* the armed timer event (it fired well
    # after the ~6-cycle episode) and found its token stale.
    assert engine.now >= 33
    assert net.detections == 0


def test_quarantined_network_bounces_new_arrivals():
    engine, _, net = build(2, 2)
    net.row_tx[1].stuck = 0
    arrive_all(engine, net)
    assert net.quarantined
    late = {}
    net.arrive(0, lambda *a: late.setdefault(0, a))
    engine.run()
    assert late[0] == (FAILOVER,)


def test_episode_watchdog_catches_missing_cores():
    """With the optional first-arrival budget, an episode whose cores
    never all show up fails over directly (retries cannot help)."""
    engine, _, net = build(2, 2, watchdog_episode_budget=50)
    outcomes = {}
    for cid in range(3):                       # core 3 never arrives
        net.arrive(cid, lambda *a, c=cid: outcomes.__setitem__(c, a))
    engine.run()
    assert all(outcomes[c] == (FAILOVER,) for c in range(3))
    assert net.quarantined
    assert net.retries == 0                    # skipped straight past them
    assert net.failovers == 1


# ---------------------------------------------------------------------- #
# Chip-level acceptance: stuck wire, run completes via software failover
# ---------------------------------------------------------------------- #
def test_stuck_gline_chip_run_completes_via_failover():
    cfg = CMPConfig.for_cores(16)
    cfg = cfg.with_(gline=replace(cfg.gline, watchdog_budget=64,
                                  watchdog_retries=2))
    chip = CMP(cfg, barrier="gl")
    net = chip.barrier_impl.networks[0]
    net.lines[0].stuck = 0                     # row-0 gather line, dead
    result = chip.run(SyntheticBarrierWorkload(iterations=10))

    counters = chip.stats.counters
    assert counters["faults.watchdog.detections"] == 3
    assert counters["faults.watchdog.retries"] == 2
    assert counters["faults.watchdog.failovers"] == 1
    # Every one of the 40 episodes x 16 cores completed over software.
    assert counters["faults.failover.sw_arrivals"] == 640
    assert result.num_barriers() == 40
    assert net.quarantined


def test_failover_to_dsw_fallback():
    cfg = CMPConfig.for_cores(4)
    cfg = cfg.with_(gline=replace(cfg.gline, watchdog_budget=64,
                                  failover_barrier="dsw"))
    chip = CMP(cfg, barrier="gl")
    assert "DSW" in chip.barrier_impl.describe()
    chip.barrier_impl.networks[0].lines[0].stuck = 0
    result = chip.run(SyntheticBarrierWorkload(iterations=2))
    assert chip.stats.counters["faults.watchdog.failovers"] == 1
    assert result.num_barriers() == 8


def test_unhardened_gl_barrier_has_no_fallback():
    chip = make_chip(4, "gl")
    assert chip.barrier_impl.fallback is None
    assert chip.barrier_impl.networks[0].hardened is False


def test_watchdog_with_injected_stuck_faults_end_to_end():
    """Acceptance: a seeded FaultPlan (not a hand-placed fault) produces
    stuck wires and the run still completes, deterministically."""
    def one_run():
        cfg = CMPConfig.for_cores(16)
        cfg = cfg.with_(
            gline=replace(cfg.gline, watchdog_budget=64,
                          watchdog_retries=2),
            faults=FaultPlan(seed=3, gline_stuck_rate=0.01))
        chip = CMP(cfg, barrier="gl")
        result = chip.run(SyntheticBarrierWorkload(iterations=10))
        c = chip.stats.counters
        return (result.total_cycles,
                c.get("faults.gline.stuck", 0),
                c.get("faults.watchdog.failovers", 0),
                c.get("faults.failover.sw_arrivals", 0))

    first = one_run()
    assert first[1] >= 1                       # faults actually injected
    assert first[3] >= 1                       # and software finished them
    assert first == one_run()                  # seeded => reproducible


def test_early_release_is_reported_and_named_by_the_deadlock():
    """A gather glitch and miscount land row counts on target with core
    13 missing: episode 1 releases 15 of 16 cores at cycle 1,350, which
    neither the atomicity guard nor a shadow check (there is none
    outside probation) withholds.  The release is counted and traced
    where it happens; core 13 stays an episode behind until the run
    deadlocks, and the deadlock names the early release."""
    cfg = CMPConfig.for_cores(16)
    cfg = cfg.with_(gline=replace(cfg.gline, watchdog_budget=64,
                                  watchdog_retries=2),
                    faults=FaultPlan(seed=6, gline_glitch_rate=0.01,
                                     scsma_miscount_rate=0.01))
    tracer = RingTracer(capacity=None, kinds={obs_ev.GL_EARLY_RELEASE})
    chip = CMP(cfg, barrier="gl", obs=Observability(tracer=tracer))
    with pytest.raises(DeadlockError) as err:
        chip.run(StressWorkload(ops_per_core=20, barriers=6, locks=4,
                                seed=6))
    assert chip.stats.counters["faults.gline.early_releases"] == 1
    (event,) = list(tracer)
    assert (event.time, event.source) == (1350, "glnet")
    assert event.detail == {"cores": 15, "arrived": 15, "of": 16}
    assert chip.barrier_impl.networks[0].first_early_release == (1350, 15)
    assert err.value.blocked_cores == (13,)
    message = str(err.value)
    assert message.startswith("simulation deadlocked at cycle 40872: ")
    assert "(core 13: SpinUntil)" in message
    assert "glnet released early at cycle 1350 with 15 of 16 cores " \
        "arrived" in message
