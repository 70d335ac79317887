"""Pins of the traced event stream of three G-line barrier chip runs.

Each case runs a fully observed chip (every trace event kept) and pins
how many trace events it emitted, the simulated cycles, and a sha256 of
the canonical JSON of every event's ``(time, source, kind, detail)``.
That covers what the barrier network's tick shows the tracer: one
``gline.fsm`` event and one ``gline.wire`` event per wire per clocked
cycle, with the levels and counts the receivers sampled, and every
arrival, release, episode, retry and failover, in order.  How the
network visits its controllers may change; what it reports may not.
"""

from dataclasses import replace

import pytest

from helpers import canonical_digest
from repro.chip.cmp import CMP
from repro.common.params import CMPConfig
from repro.experiments.runner import paper_config
from repro.faults import FaultPlan
from repro.obs import Observability
from repro.workloads.stress import StressWorkload
from repro.workloads.synthetic import SyntheticBarrierWorkload


def _traced_run(cfg, workload):
    obs = Observability.full(cfg.num_cores, capacity=None)
    chip = CMP(cfg, barrier="gl", obs=obs)
    cycles = chip.run(workload).total_cycles
    workload.verify(chip)
    events = [[ev.time, ev.source, ev.kind, ev.detail]
              for ev in obs.tracer.events]
    return len(events), cycles, canonical_digest(events)


def _flat_stress64():
    # One flat 8x8 network (the evaluation config's S-CSMA bound of 7).
    return _traced_run(paper_config(64), StressWorkload(
        ops_per_core=12, barriers=3, locks=8, seed=5))


def _hardened_faults16():
    # Seeded glitches and miscounts: spurious releases, watchdog retries
    # and a failover, all visible in the trace.
    cfg = CMPConfig.for_cores(16)
    cfg = cfg.with_(gline=replace(cfg.gline, watchdog_budget=64,
                                  watchdog_retries=2),
                    faults=FaultPlan(seed=3, gline_glitch_rate=0.01,
                                     scsma_miscount_rate=0.01))
    return _traced_run(cfg, StressWorkload(ops_per_core=20, barriers=6,
                                           locks=4, seed=3))


def _hierarchical64():
    # 8x8 exceeds one network's 7x7 limit: 2x2 clusters and a top level.
    return _traced_run(CMPConfig.for_cores(64),
                       SyntheticBarrierWorkload(iterations=3))


#: name -> (scenario, trace events, cycles, trace sha256).  The hashes
#: were re-pinned when same-cycle register writes and core resumes began
#: to share batch events: the last event, ``engine.run.end``, reports the
#: smaller executed-event count, and no other event changed.
TRACE_PINS = {
    "flat-stress64": (_flat_stress64, 12710, 14378,
        "af240fcdc9078728e0cfa3066d031a99c5d717b7be384b206c941f4ba8160637"),
    "hardened-faults16": (_hardened_faults16, 15531, 40351,
        "6b9be016e1d3264471241dbbe7e2f7f23eb7e54b08158ba7f0ed3a0fab71966e"),
    "hierarchical64": (_hierarchical64, 4922, 204,
        "add919fbf9dfeeaf6b030b25eeb676f3b418c080399ca0b8a0509a4af0a4dbdc"),
}


@pytest.mark.parametrize("name", sorted(TRACE_PINS))
def test_barrier_trace_is_pinned(name):
    scenario, *pinned = TRACE_PINS[name]
    assert scenario() == tuple(pinned)
