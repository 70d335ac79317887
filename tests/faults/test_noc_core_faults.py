"""NoC packet faults and core straggler / fail-stop faults."""

from collections import defaultdict
from dataclasses import replace

import pytest

from repro import CMP, CMPConfig
from repro.common.errors import DeadlockError
from repro.common.params import NocConfig
from repro.common.stats import MsgCat, StatsRegistry
from repro.faults import FaultInjector, FaultPlan
from repro.noc import Message, Network, VCTNetwork
from repro.obs import Observability, RingTracer
from repro.obs import events as obs_ev
from repro.sim import Engine
from repro.workloads.synthetic import SyntheticBarrierWorkload


def _run(plan, barrier="csw", cores=4, iterations=5):
    chip = CMP(CMPConfig.for_cores(cores).with_(faults=plan),
               barrier=barrier)
    result = chip.run(SyntheticBarrierWorkload(iterations=iterations))
    return chip, result


def test_noc_drops_slow_but_complete_a_software_barrier():
    clean_chip, clean = _run(FaultPlan())
    chip, result = _run(FaultPlan(seed=2, noc_drop_rate=0.05))
    assert chip.stats.counters["faults.noc.dropped"] > 0
    assert result.num_barriers() == clean.num_barriers()
    # Retransmission penalties cost real cycles.
    assert result.total_cycles > clean.total_cycles
    # A disabled plan builds no injector at all.
    assert clean_chip.injector is None


def test_noc_corruption_is_detected_and_retransmitted():
    chip, result = _run(FaultPlan(seed=2, noc_corrupt_rate=0.08))
    assert chip.stats.counters["faults.noc.corrupted"] > 0
    assert result.num_barriers() == 20


def test_noc_faults_are_deterministic():
    def one(seed):
        chip, result = _run(FaultPlan(seed=seed, noc_drop_rate=0.05,
                                      noc_corrupt_rate=0.05))
        return (result.total_cycles,
                chip.stats.counters["faults.noc.dropped"],
                chip.stats.counters["faults.noc.corrupted"])

    assert one(7) == one(7)
    assert one(7) != one(8)


def test_noc_faults_apply_under_vct_model_too():
    cfg = CMPConfig.for_cores(4)
    cfg = cfg.with_(noc=replace(cfg.noc, model="vct"),
                    faults=FaultPlan(seed=2, noc_drop_rate=0.05))
    chip = CMP(cfg, barrier="csw")
    result = chip.run(SyntheticBarrierWorkload(iterations=5))
    assert chip.stats.counters["faults.noc.dropped"] > 0
    assert result.num_barriers() == 20


@pytest.mark.parametrize("network_class", [Network, VCTNetwork])
def test_noc_latency_counts_retransmission_and_channel_wait(network_class):
    """A message's latency runs from its first send to its delivery, so
    a fault retransmission and the wait behind a blocked channel count."""
    engine = Engine()
    stats = StatsRegistry(4)
    net = network_class(engine, stats, NocConfig(rows=2, cols=2))
    net.injector = FaultInjector(FaultPlan(seed=1, noc_drop_rate=0.9), stats)
    delivered = {}
    first_send = {}

    def send(tag):
        first_send[tag] = engine.now
        net.send(Message(src=0, dst=3, kind="GetS",
                         category=MsgCat.REQUEST, size_bytes=8,
                         on_delivery=lambda m: delivered.setdefault(
                             tag, (engine.now, m.latency))))

    engine.schedule_at(0, send, "a")
    engine.schedule_at(0, send, "b")
    engine.schedule_at(5, send, "c")
    engine.run()
    assert stats.counters["faults.noc.dropped"] > 0
    assert sorted(delivered) == ["a", "b", "c"]
    for tag, (at, latency) in delivered.items():
        assert latency == at - first_send[tag]
    # The later messages waited behind the first one's retransmissions.
    assert delivered["b"][1] > net.zero_load_latency(0, 3, 8)


def test_stragglers_delay_but_complete_the_barrier():
    clean_chip, clean = _run(FaultPlan(), barrier="gl")
    chip, result = _run(FaultPlan(seed=4, core_straggler_rate=0.3,
                                  straggler_max_cycles=100),
                        barrier="gl")
    assert chip.stats.counters["faults.core.stragglers"] > 0
    assert result.num_barriers() == clean.num_barriers()
    assert result.total_cycles > clean.total_cycles


def test_straggler_arrivals_count_from_when_the_frame_runs():
    # A straggler's barrier arrival is recorded when it issues the
    # BarrierOp, stamped with the cycle its library frame first runs.
    # Rebuild every episode from the cores' trace events and compare.
    tracer = RingTracer(capacity=None, kinds={obs_ev.CORE_BARRIER_ENTER,
                                              obs_ev.CORE_STRAGGLER})
    plan = FaultPlan(seed=4, core_straggler_rate=0.3,
                     straggler_max_cycles=100)
    chip = CMP(CMPConfig.for_cores(4).with_(faults=plan), barrier="gl",
               obs=Observability(tracer=tracer))
    chip.run(SyntheticBarrierWorkload(iterations=5))
    assert chip.stats.counters["faults.core.stragglers"] > 0
    arrivals = defaultdict(list)
    for ev in tracer.events:
        if ev.kind == obs_ev.CORE_BARRIER_ENTER:
            arrivals[ev.source].append(ev.time)
        else:  # emitted right after the same core's enter
            arrivals[ev.source][-1] += ev.detail["delay"]
    episodes = list(zip(*arrivals.values()))
    assert [(s.first_arrival, s.last_arrival)
            for s in chip.stats.barriers] == \
        [(min(ep), max(ep)) for ep in episodes]
    assert chip.stats.counters["barrier.s2_wait_cycles"] == \
        sum(len(ep) * max(ep) - sum(ep) for ep in episodes)


def test_failstop_deadlock_is_enriched():
    """Satellite (c): a fail-stopped core is unrecoverable by design; the
    DeadlockError must say when it happened and what everyone was doing."""
    with pytest.raises(DeadlockError) as exc:
        _run(FaultPlan(seed=1, core_failstop_rate=0.5), barrier="gl")
    msg = str(exc.value)
    assert "deadlocked at cycle" in msg
    assert "[fail-stopped]" in msg
    assert "BarrierOp" in msg              # the halted cores' pending op
    assert exc.value.blocked_cores         # machine-readable core list
