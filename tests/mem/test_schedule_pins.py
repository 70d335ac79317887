"""Pins of the coherence event schedule.

Each case runs a coherence-heavy scenario on a fresh chip and pins four
things: how many events the engine executed, a sha256 of its
``(time, priority, seq)`` order log, a sha256 of the canonical JSON of
``stats.to_dict()``, and the simulated cycles.  Callback names are left
out of the log, so handlers may be renamed or restructured; what must
not move is when each event runs, in what order, and what the run
counts.
"""

import pytest

from helpers import MemHarness, canonical_digest, make_chip
from repro.workloads import Kernel3Workload
from repro.workloads.stress import StressWorkload
from repro.workloads.synthetic import SyntheticBarrierWorkload


def _logged_chip(num_cores, barrier="gl"):
    chip = make_chip(num_cores, barrier)
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


#: name -> (scenario, events, cycles, order-log sha256, stats sha256),
#: computed before the coherence fast path.
PINS = {
    "csw16": (_csw16, 93401, 128197,
        "75e30498920bf17c94005a993a4d4412c5fe2fe37d103899bff3a37014279478",
        "d0fbe3b7c9bbac3b5f760ab71e649439f08c23ffd67b272f40ddf31acad90198"),
    "dsw16": (_dsw16, 10811, 9919,
        "f722a3972cb4306a2e7740cd6a8d3ff52cc3a5e3ec2559a1adaead0fb4f25381",
        "23d87e86df2a68d267b6c7d3dd657f78eb5ddbdcd176ff74a245b8589f4b9cbe"),
    "kern3-16": (_kern3_16, 5946, 7411,
        "a908524054ffd69f5ce1cfbabbd97e88e5703904e7b98c6620db0b15c265173c",
        "6507ee0373a4c2887afc967e69f5076af7dac2c46486a68f5b51b6f677d7c05f"),
    "putm-churn": (_putm_churn, 354, 3608,
        "3b12e1c4f378d26db4edc6c0d73fdedf1d36dfe132793e39edad18ed02d16f51",
        "c7c0a071db4ccc2502bd2b752e0b4bd1ac10acf4c559f087709b743a857f9d94"),
    "putm-crossing": (_putm_crossing, 380, 632,
        "4a855822b35ef673053d607deba67566895752f08eaae58cce2c79bb0441fb58",
        "651ee164a5e45d8bae1e04c85f6362f34913ab1621c7749b0d3c56c4c0b43f36"),
    "stress16": (_stress16, 14420, 12791,
        "e6910370d147500ad151b90ebc6bb5eee8cbf94955f96b86b69cd9a5fbccee6d",
        "ba0e8a10702e896a0aed036acaa7192ea3048083c8ae0d3410305db366eae01a"),
    "warmup": (_warmup, 9825, 11501,
        "e266acdc77fa62699ce7cd5dc696b48868ab7471bec719bfb405bec9cb6aff09",
        "961709fbbed33f060857b8e3709f5d9288035fa09d1db8d29cb95b85a68f30c2"),
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
