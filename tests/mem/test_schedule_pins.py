"""Pins of the coherence and synchronization event schedule.

Each case runs a coherence-heavy or G-line synchronization scenario
(flat, hierarchical and time-multiplexed barriers and all-reduces,
watchdog, segment and collective failovers, and seeded wire faults on a
hardened barrier) on a fresh chip and pins
four things: how many events the engine executed, a sha256 of its
``(time, priority, seq)`` order log, a sha256 of the canonical JSON of
``stats.to_dict()``, and the simulated cycles.  Callback names are left
out of the log, so handlers may be renamed or restructured; what must
not move is when each event runs, in what order, and what the run
counts.
"""

from dataclasses import replace

import pytest

from helpers import (MemHarness, barrier_slots, canonical_digest,
                     make_chip, run_uniform)
from repro.chip.cmp import CMP
from repro.collectives.config import CollectiveConfig
from repro.common.params import CMPConfig
from repro.cpu import isa
from repro.experiments.runner import paper_config
from repro.faults import FaultPlan
from repro.gline.barrier import GLBarrier
from repro.workloads import Kernel3Workload
from repro.workloads.collective import CollectiveAllReduceWorkload
from repro.workloads.stress import StressWorkload
from repro.workloads.synthetic import SyntheticBarrierWorkload


def _logged_chip(num_cores, barrier="gl", **overrides):
    chip = make_chip(num_cores, barrier, **overrides)
    chip.engine.order_log = []
    return chip


def _one_run(barrier, workload):
    chip = _logged_chip(16, barrier)
    return chip, chip.run(workload).total_cycles


def _csw16():
    return _one_run("csw", SyntheticBarrierWorkload(iterations=3))


def _dsw16():
    return _one_run("dsw", SyntheticBarrierWorkload(iterations=3))


def _kern3_16():
    return _one_run("dsw", Kernel3Workload(n=256, iterations=3))


def _stress16():
    chip = _logged_chip(16, "dsw")
    workload = StressWorkload(ops_per_core=40, barriers=2, shared_lines=4,
                              locks=3, seed=5)
    result = chip.run(workload)
    workload.verify(chip)
    return chip, result.total_cycles


def _churn_lines(chip):
    """Lines that all fall in one L1 set, more of them than it has ways."""
    l1 = chip.config.l1
    set_stride = chip.num_cores * l1.num_sets * 64
    return [(1 + k) * set_stride + 64 for k in range(l1.assoc + 2)]


def _putm_churn():
    # The capacity churn of test_protocol_edges.test_stale_putm_counted:
    # two tiles take turns dirtying the lines of one L1 set, one access
    # at a time, so every write-back completes before the next access.
    chip = _logged_chip(2)
    h = MemHarness(chip)
    addrs = _churn_lines(chip)
    for round_ in range(3):
        for a in addrs:
            h.store(0, a, round_)
        for a in addrs:
            h.store(1, a, round_ + 100)
    assert chip.stats.counters["dir.putm_fresh"] > 0
    return chip, chip.engine.now


def _putm_crossing():
    # The same churn with every access of a round in flight at once:
    # write-backs cross FwdGetS and FwdInv forwards, which the evicting
    # L1 answers from its write-back buffer, and the late PutMs are
    # stale.
    chip = _logged_chip(2)
    l1s = [tile.l1 for tile in chip.tiles]
    addrs = _churn_lines(chip)
    done = []
    for round_ in range(3):
        for a in addrs:
            l1s[0].store(a, round_, lambda: done.append(None))
            l1s[1].load(a, done.append)
            l1s[1].store(a, round_ + 100, lambda: done.append(None))
        chip.engine.run()
    assert len(done) == 3 * 3 * len(addrs)
    assert chip.stats.counters["dir.putm_stale"] > 0
    return chip, chip.engine.now


def _warmup():
    chip = _logged_chip(16, "dsw")
    result = chip.run_with_warmup(SyntheticBarrierWorkload(iterations=2),
                                  Kernel3Workload(n=256, iterations=1))
    return chip, result.total_cycles


def _gl16():
    return _one_run("gl", SyntheticBarrierWorkload(iterations=3))


def _gl64_hierarchical():
    # 8x8 exceeds one network's 7x7 limit: 2x2 clusters and a top level.
    chip = _logged_chip(64)
    return chip, chip.run(SyntheticBarrierWorkload(iterations=3)).total_cycles


def _allreduce_echo64():
    chip = _logged_chip(64, collectives=CollectiveConfig(
        enabled=True, value_width=8, integrity="echo"))
    workload = CollectiveAllReduceWorkload(iterations=7)
    result = chip.run(workload)
    workload.verify(chip)
    return chip, result.total_cycles


def _gl16_failover():
    # test_watchdog.test_stuck_gline_chip_run_completes_via_failover: a
    # dead row-0 gather line trips the watchdog, which fails the network
    # over to the software barrier for the rest of the run.
    cfg = CMPConfig.for_cores(16)
    cfg = cfg.with_(gline=replace(cfg.gline, watchdog_budget=64,
                                  watchdog_retries=2))
    chip = CMP(cfg, barrier="gl")
    chip.engine.order_log = []
    chip.barrier_impl.networks[0].lines[0].stuck = 0
    result = chip.run(SyntheticBarrierWorkload(iterations=10))
    assert chip.stats.counters["faults.watchdog.failovers"] == 1
    return chip, result.total_cycles


def _gl16_timemux():
    # test_timemux.test_on_chip_via_glbarrier at 16 cores: two barrier
    # contexts share one 4x4 network's wires by time slot, and staggered
    # compute makes arrivals land on and off each context's slot.
    chip = _logged_chip(16)
    ctxs = barrier_slots(chip.engine, chip.stats, 4, 4, chip.config.gline)
    chip.barrier_impl = GLBarrier(ctxs, chip.config.gline)
    for tile in chip.tiles:
        tile.core.barrier_binding = chip.barrier_impl

    def prog(cid):
        for i in range(3):
            yield isa.Compute(1 + (cid * 3 + i) % 5)
            yield isa.BarrierOp(i % 2)

    return chip, run_uniform(chip, prog).total_cycles


def _allreduce16_slots2():
    chip = _logged_chip(16, collectives=CollectiveConfig(enabled=True,
                                                         time_slots=2))
    workload = CollectiveAllReduceWorkload(iterations=7)
    result = chip.run(workload)
    workload.verify(chip)
    return chip, result.total_cycles


def _gl64_segment_failover():
    # A dead gather line in cluster 1 of the 8x8 hierarchy: that cluster
    # degrades to a software segment that still joins the top level.
    cfg = CMPConfig.for_cores(64)
    cfg = cfg.with_(gline=replace(cfg.gline, watchdog_budget=64,
                                  segment_failover=True))
    chip = CMP(cfg, barrier="gl")
    chip.engine.order_log = []
    chip.barrier_impl.networks[0].clusters[1].lines[0].stuck = 0
    result = chip.run(SyntheticBarrierWorkload(iterations=4))
    counters = chip.stats.counters
    assert counters["faults.watchdog.failovers"] == 1
    assert counters["faults.failover.segment_arrivals"] == 256
    return chip, result.total_cycles


def _allreduce16_failover():
    # A dead collective wire: the watchdog fails the network over and
    # every episode completes over the software all-reduce.
    chip = _logged_chip(16, collectives=CollectiveConfig(
        enabled=True, watchdog_budget=64))
    chip.collective_impl.networks[0].lines[0].stuck = 0
    workload = CollectiveAllReduceWorkload(iterations=5)
    result = chip.run(workload)
    workload.verify(chip)
    assert chip.stats.counters["faults.collective.failovers"] == 1
    return chip, result.total_cycles


def _gl64_flat_stress():
    # The evaluation config raises the S-CSMA bound to 7, so 8x8 runs on
    # one flat network: eight rows whose arrivals reach the masters at
    # scattered cycles.
    chip = CMP(paper_config(64), barrier="gl")
    chip.engine.order_log = []
    workload = StressWorkload(ops_per_core=12, barriers=3, locks=8, seed=5)
    result = chip.run(workload)
    workload.verify(chip)
    net = chip.barrier_impl.networks[0]
    assert (net.rows, net.cols, net.active_cycles) == (8, 8, 214)
    return chip, result.total_cycles


def _gl16_hardened_faults():
    # Seeded glitches and S-CSMA miscounts on a hardened 4x4 network:
    # spurious releases, watchdog retries and one failover.
    cfg = CMPConfig.for_cores(16)
    cfg = cfg.with_(gline=replace(cfg.gline, watchdog_budget=64,
                                  watchdog_retries=2),
                    faults=FaultPlan(seed=3, gline_glitch_rate=0.01,
                                     scsma_miscount_rate=0.01))
    chip = CMP(cfg, barrier="gl")
    chip.engine.order_log = []
    workload = StressWorkload(ops_per_core=20, barriers=6, locks=4, seed=3)
    result = chip.run(workload)
    workload.verify(chip)
    counters = chip.stats.counters
    assert [counters[f"faults.{k}"] for k in (
        "gline.miscounts", "gline.glitches", "gline.spurious_releases",
        "watchdog.retries", "watchdog.failovers")] == [14, 7, 4, 7, 1]
    return chip, result.total_cycles


#: name -> (scenario, events, cycles, order-log sha256, stats sha256).
#: Cycles and stats hashes date from before the coherence fast path
#: (coherence pins) and the sync-op fast path (synchronization pins).
#: Event counts and order hashes were re-pinned when barrier and
#: collective frames began to run inline and the G-line entry overhead
#: rode on the arrival: fewer events, each at the cycle it had.  The
#: stats hashes of the two hierarchical pins were re-pinned when
#: hierarchical builds began to count each chip episode once and every
#: level's wire toggles.  The time-multiplexed and failover pins were
#: added as they were, before the barrier and collective networks began
#: to share one engine adapter.  The flat 8x8 stress and hardened fault
#: pins were added as they were, before the barrier network's tick began
#: to visit only the stages that can change.  The event counts and order
#: hashes of the ten G-line and collective pins were re-pinned when the
#: register writes and core resumes that land back to back in one cycle
#: began to share one batch event; their cycles and stats hashes held.
PINS = {
    "csw16": (_csw16, 93209, 128197,
        "212c145aefb473920796aecee2c7cd7f39f2a629a240eabce3c9eff100c4a55c",
        "d0fbe3b7c9bbac3b5f760ab71e649439f08c23ffd67b272f40ddf31acad90198"),
    "dsw16": (_dsw16, 10619, 9919,
        "4bd7a8b03fb534005fc093d0185d6d71a97ffbf9d954c8f8d45c6096e6e64f1c",
        "23d87e86df2a68d267b6c7d3dd657f78eb5ddbdcd176ff74a245b8589f4b9cbe"),
    "kern3-16": (_kern3_16, 5898, 7411,
        "e404f7e33c08eefdff9fdf894dd76584e2125dc835e5fbeb18aee1f8e04efb9c",
        "6507ee0373a4c2887afc967e69f5076af7dac2c46486a68f5b51b6f677d7c05f"),
    "putm-churn": (_putm_churn, 354, 3608,
        "3b12e1c4f378d26db4edc6c0d73fdedf1d36dfe132793e39edad18ed02d16f51",
        "c7c0a071db4ccc2502bd2b752e0b4bd1ac10acf4c559f087709b743a857f9d94"),
    "putm-crossing": (_putm_crossing, 380, 632,
        "4a855822b35ef673053d607deba67566895752f08eaae58cce2c79bb0441fb58",
        "651ee164a5e45d8bae1e04c85f6362f34913ab1621c7749b0d3c56c4c0b43f36"),
    "stress16": (_stress16, 14388, 12791,
        "c8ec6de3677841913c48c95b33b55f2afd2abb597925bc0572302d6198707016",
        "ba0e8a10702e896a0aed036acaa7192ea3048083c8ae0d3410305db366eae01a"),
    "warmup": (_warmup, 9681, 11501,
        "9dead2aa8f937d30cf65c6acc2464b79bb4639d5218d3aee55702e537ca3edcd",
        "961709fbbed33f060857b8e3709f5d9288035fa09d1db8d29cb95b85a68f30c2"),
    "gl16": (_gl16, 88, 156,
        "c0b8ca17a9ff9705d49373fcd16381ff10449158c4aee413579ad255aa64283d",
        "ac9183c4fb990cd9297772f7748147d5f57677406bca2777e860701fabbfddc4"),
    "gl64-hierarchical": (_gl64_hierarchical, 436, 204,
        "ea29e87bbdaeb72e25f2f3e4d5042bc79b8821fbcf9c625995c043c226380bdb",
        "682084ab77ca730d4501c98b6513179b468f858f7ebe78fbad1b1a661d9eb80f"),
    "allreduce-echo64": (_allreduce_echo64, 6271, 1451,
        "5c6c1238e6fb9d6e045bd447c6fc0a08dace2146765a4aa4ce4d8dcdf7cbbeb0",
        "7ae0a05109a5dd3d8cf0300420731014ac585491def9483575ee077d0cb1929d"),
    "gl16-failover": (_gl16_failover, 308352, 422086,
        "fd428263a58a84d58520ccabffdc31f95aefc4e25ad03ff9da76c020ae7f2efd",
        "a58d44ece3ca4ec5b3ed69aca2e6ede6f74785e8f43c31d506216a6e5a35ecc0"),
    "gl16-timemux": (_gl16_timemux, 94, 63,
        "0a1c792bbc7c266b3533b4ac5b9ea8b6fb3c628b7a8f90a71efd9c05498e4033",
        "66813b107821205a50c94995d751632f17ca18f6dec7aa100477cb297f7e6854"),
    "allreduce16-slots2": (_allreduce16_slots2, 512, 931,
        "720b69a308a3168388b4c7520b0a891fb0131e51eb295f5ef3b358b26d7766a5",
        "efad4eecaf42b4785378b83e613e08cca8f1bcee0a6de6907d71557e12c6b57f"),
    "gl64-segment-failover": (_gl64_segment_failover, 1781, 1201,
        "b222902d30cca1d9ca15a2f9bde32b5f7b69726adfa7e214307501ca739878dd",
        "3a3fe0c8d958174caef67a128a74a579c2462b8ec048ca1dff176f74e2fe4c45"),
    "allreduce16-failover": (_allreduce16_failover, 6900, 8008,
        "605cb257cd84a0145e82cec0da885087c462190e6aea202270abdeba02239cd4",
        "523929af685b2f93cc787766e982ef25ad732de2d5481a422bb17df92a72eeef"),
    "gl64-flat-stress": (_gl64_flat_stress, 21723, 14378,
        "b9b9e0cc1184b3f6fc1467a95ea9dd19c023b1997d31d28f694b1f522ff99629",
        "ff9bcc93480405a8d0c361c0d60a7d3845c07630f94717f1006fdcb907ef79e4"),
    "gl16-hardened-faults": (_gl16_hardened_faults, 28577, 40351,
        "43e56c7eafc0a422ecd4b53f93225f43f1b1caf336890bca886cca3cffb0b206",
        "708566d16a56ee02783488d01a5cd568bc16e4cc14c4e2b62fb9795f691d5cee"),
}


def observe(scenario):
    """``(events, cycles, order sha256, stats sha256)`` of *scenario*."""
    chip, cycles = scenario()
    order = [list(entry[:3]) for entry in chip.engine.order_log]
    return (len(order), cycles, canonical_digest(order),
            canonical_digest(chip.stats.to_dict()))


@pytest.mark.parametrize("name", sorted(PINS))
def test_coherence_schedule_is_pinned(name):
    scenario, *pinned = PINS[name]
    assert observe(scenario) == tuple(pinned)
