"""Per-segment degrade: hierarchical clusters and time-mux slots.

A fault is a *local* event: with ``segment_failover`` a quarantined
cluster only degrades its own segment -- its cores gather in a software
cohort that still joins the chip-wide barrier through the healthy top
level -- and a time-multiplexed slot context degrades alone while its
sibling slots keep the shared wires.  With recovery enabled a healed
segment is probed and re-admitted without the rest of the chip ever
leaving hardware.
"""

from helpers import barrier_slots
from repro.common.params import GLineConfig
from repro.common.stats import StatsRegistry
from repro.faults import FAILOVER
from repro.gline.hierarchical import HierarchicalGLineBarrier
from repro.gline.recovery import DEGRADED, PROBATION, QUARANTINED
from repro.sim.engine import Engine

HARDENED = dict(watchdog_budget=48, watchdog_retries=1)
RECOVERY = dict(**HARDENED, recovery_enabled=True,
                recovery_probe_interval=8, recovery_backoff_factor=2,
                recovery_max_backoff=64, recovery_probation_barriers=1,
                recovery_max_flaps=2, recovery_max_probes=3)


def _arrive_all(engine, net, n, drain=True):
    outcomes = {}
    for cid in range(n):
        engine.schedule_at(engine.now, lambda c=cid: net.arrive(
            c, lambda *a, c=c: outcomes.__setitem__(c, a)))
    if drain:
        engine.run()
    else:
        while len(outcomes) < n:
            assert engine.step(), "engine drained before all outcomes"
    return outcomes


# ---------------------------------------------------------------------- #
# Hierarchical clusters
# ---------------------------------------------------------------------- #
def _hier(**cfg):
    engine = Engine()
    stats = StatsRegistry(64)
    net = HierarchicalGLineBarrier(engine, stats, 8, 8,
                                   GLineConfig(**cfg))
    return engine, stats, net


def test_cluster_fault_degrades_only_its_segment():
    engine, stats, net = _hier(**HARDENED, segment_failover=True)
    net.clusters[0].lines[0].stuck = 0
    outcomes = _arrive_all(engine, net, 64)
    # Everyone completed, and the chip is NOT quarantined: only the
    # faulty cluster's 16 cores took the software segment path.
    assert sorted(outcomes) == list(range(64))
    assert net.clusters[0].quarantined and not net.quarantined
    assert net.barriers_completed == 1
    assert stats.counters["faults.failover.segment_arrivals"] == 16
    # The next episode repeats the split: healthy clusters stay on
    # hardware, the quarantined segment re-collects in software.
    outcomes = _arrive_all(engine, net, 64)
    assert sorted(outcomes) == list(range(64))
    assert net.barriers_completed == 2
    assert stats.counters["faults.failover.segment_arrivals"] == 32
    assert all(not c.quarantined for c in net.clusters[1:])


def test_without_segment_mode_cluster_fault_quarantines_chip():
    engine, _, net = _hier(**HARDENED)
    net.clusters[0].lines[0].stuck = 0
    _arrive_all(engine, net, 64)
    assert net.clusters[0].quarantined and net.quarantined


def test_healed_cluster_is_readmitted_while_chip_stays_up():
    engine, stats, net = _hier(**RECOVERY, segment_failover=True)
    net.clusters[0].lines[0].stuck = 0
    # Stop at outcome delivery so the wire can heal before the probe.
    outcomes = _arrive_all(engine, net, 64, drain=False)
    assert sorted(outcomes) == list(range(64))
    rec = net.clusters[0].recovery
    assert net.clusters[0].quarantined and rec.state == DEGRADED
    net.clusters[0].lines[0].stuck = None
    engine.run()                       # pending probe passes
    assert rec.state == PROBATION and not net.clusters[0].quarantined
    # The re-admitted cluster runs the next episode on hardware: no new
    # segment arrivals, and a clean probation window restores health.
    before = stats.counters["faults.failover.segment_arrivals"]
    _arrive_all(engine, net, 64)
    assert stats.counters["faults.failover.segment_arrivals"] == before
    assert stats.counters["faults.recovery.readmits"] == 1
    assert net.barriers_completed == 2


def test_still_faulty_cluster_retires_and_segment_keeps_covering():
    engine, _, net = _hier(**RECOVERY, segment_failover=True)
    net.clusters[0].lines[0].stuck = 0
    _arrive_all(engine, net, 64)       # drain: probes burn out, retire
    assert net.clusters[0].recovery.state == QUARANTINED
    assert not net.quarantined
    outcomes = _arrive_all(engine, net, 64)
    assert sorted(outcomes) == list(range(64))
    assert net.barriers_completed == 2


# ---------------------------------------------------------------------- #
# Time-multiplexed slots
# ---------------------------------------------------------------------- #
def _slots(**cfg):
    engine = Engine()
    stats = StatsRegistry(4)
    ctxs = barrier_slots(engine, stats, 2, 2, GLineConfig(**cfg))
    return engine, stats, ctxs


def test_slot_fault_degrades_only_that_context():
    engine, _, ctxs = _slots(**RECOVERY)
    ctxs[0].lines[0].stuck = 0
    bad = _arrive_all(engine, ctxs[0], 4)
    assert all(a == (FAILOVER,) for a in bad.values())
    assert ctxs[0].quarantined
    assert ctxs[0].recovery.state == QUARANTINED  # probes burned out
    # The sibling slot still synchronizes on the shared wires.
    good = _arrive_all(engine, ctxs[1], 4)
    assert all(a == () for a in good.values())
    assert not ctxs[1].quarantined and ctxs[1].barriers_completed == 1


def test_healed_slot_is_readmitted():
    engine, stats, ctxs = _slots(**RECOVERY)
    ctxs[0].lines[0].stuck = 0
    bad = _arrive_all(engine, ctxs[0], 4, drain=False)
    assert all(a == (FAILOVER,) for a in bad.values())
    assert ctxs[0].recovery.state == DEGRADED
    ctxs[0].lines[0].stuck = None
    engine.run()
    assert ctxs[0].recovery.state == PROBATION
    good = _arrive_all(engine, ctxs[0], 4)
    assert all(a == () for a in good.values())
    assert stats.counters["faults.recovery.readmits"] == 1
    assert ctxs[0].failover_reports and ctxs[0].failover_reports_dropped == 0
