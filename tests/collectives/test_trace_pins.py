"""Pins of the traced event stream of three collective chip runs.

Each case runs a fully observed chip (every trace event kept) and pins
how many trace events it emitted, the simulated cycles, and a sha256 of
the canonical JSON of every event's ``(time, source, kind, detail)``.
That covers what the fabric's tick shows the tracer: one
``gline.wire`` event per wire per clocked cycle with the level and count
its receivers sampled, every round tick, arrival, delivery and
integrity event, in order.  How the fabric visits its controllers may
change; what it reports may not.
"""

import pytest

from helpers import canonical_digest
from repro.chip.cmp import CMP
from repro.collectives.config import CollectiveConfig
from repro.common.params import CMPConfig
from repro.faults import FaultPlan
from repro.obs import Observability
from repro.workloads.collective import CollectiveAllReduceWorkload


def _traced_run(num_cores, workload, plan=None, **coll):
    cfg = CMPConfig.for_cores(num_cores, collectives=CollectiveConfig(
        enabled=True, value_width=8, **coll))
    if plan is not None:
        cfg = cfg.with_(faults=plan)
    obs = Observability.full(num_cores, capacity=None)
    chip = CMP(cfg, barrier="gl", obs=obs)
    cycles = chip.run(workload).total_cycles
    workload.verify(chip)
    events = [[ev.time, ev.source, ev.kind, ev.detail]
              for ev in obs.tracer.events]
    return len(events), cycles, canonical_digest(events)


def _flat_sum16():
    return _traced_run(16, CollectiveAllReduceWorkload(iterations=4,
                                                       kinds=("sum",)))


def _hier_echo64():
    # 8x8 exceeds one fabric's 7x7 limit: 2x2 clusters and a top level.
    return _traced_run(64, CollectiveAllReduceWorkload(iterations=5),
                       integrity="echo")


def _miscount_echo16():
    # Seeded S-CSMA miscounts under echo: detections, round retries and
    # whole-op retries on the ladder, all visible in the trace.
    return _traced_run(16, CollectiveAllReduceWorkload(iterations=10),
                       plan=FaultPlan(seed=11, scsma_miscount_rate=0.02),
                       integrity="echo", watchdog_budget=600,
                       watchdog_retries=2)


#: name -> (scenario, trace events, cycles, trace sha256).  The hashes
#: were re-pinned when same-cycle register writes and core resumes began
#: to share batch events: the last event, ``engine.run.end``, reports the
#: smaller executed-event count, and no other event changed.
TRACE_PINS = {
    "flat-sum16": (_flat_sum16, 2850, 655,
        "d8b61e31a4529a77e94cc77108691555dc40f31f7e24456160997edc7937933a"),
    "hier-echo64": (_hier_echo64, 38821, 1208,
        "68e675859e331acdeda5ad462d6c85b883f2d1b73fd788299fe520576c81d42c"),
    "miscount-echo16": (_miscount_echo16, 9520, 1248,
        "e5cc4dd4bdb9e4d6dfc94e3c6dbf7d494e489047f5eab04bed0cd06b1e0d12d5"),
}


@pytest.mark.parametrize("name", sorted(TRACE_PINS))
def test_collective_trace_is_pinned(name):
    scenario, *pinned = TRACE_PINS[name]
    assert scenario() == tuple(pinned)
