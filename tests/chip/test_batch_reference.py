"""Batched sync events against an engine that runs every item alone.

G-line and collective contexts hand their register writes and core
resumes to ``Engine.schedule_batch``, so that a release of k cores, or
k writes landing back to back, costs one event.  :class:`UnbatchedEngine`
schedules every item as its own ``schedule_at`` instead, which is what
the contexts did before batching.  On each scenario below, a fully
observed chip must report the same stats, cycles, trace stream and
metrics on both engines; only the executed-event count may differ,
and with it the ``engine.run.end`` trace event that reports it.
"""

from dataclasses import replace

import pytest

import repro.sim as sim
from helpers import barrier_slots
from repro.chip.cmp import CMP
from repro.collectives.config import CollectiveConfig
from repro.common.errors import ReproError
from repro.common.params import CMPConfig
from repro.cpu import isa
from repro.faults import FaultPlan
from repro.gline.barrier import GLBarrier
from repro.obs import Observability
from repro.sim.engine import Engine
from repro.workloads.collective import CollectiveAllReduceWorkload
from repro.workloads.stress import StressWorkload
from repro.workloads.synthetic import SyntheticBarrierWorkload


class UnbatchedEngine(Engine):
    """Every batch item is its own event."""

    def schedule_batch(self, time, run, item):
        self.schedule_at(time, run, [item])


def _config(clusters=False, **gline):
    """A 4x4 chip; *clusters* splits the mesh into a 2x2 grid of 2x2
    clusters (one transmitter per line)."""
    cfg = CMPConfig.for_cores(16)
    if clusters:
        gline["max_transmitters"] = 1
    return cfg.with_(gline=replace(cfg.gline, **gline)) if gline else cfg


def _collectives(cfg, **coll):
    return cfg.with_(collectives=CollectiveConfig(enabled=True,
                                                  value_width=8, **coll))


def _flat_barrier():
    return _config(), SyntheticBarrierWorkload(iterations=3), None


def _hierarchical_barrier():
    return (_config(clusters=True), SyntheticBarrierWorkload(iterations=3),
            None)


def _timemux_barrier():
    # Two barrier contexts share one 4x4 network's wires by time slot;
    # staggered compute lands arrivals on and off each context's slot.
    def setup(chip):
        ctxs = barrier_slots(chip.engine, chip.stats, 4, 4,
                             chip.config.gline)
        chip.barrier_impl = GLBarrier(ctxs, chip.config.gline)
        for core in chip.cores:
            core.barrier_binding = chip.barrier_impl

    def prog(cid):
        for i in range(4):
            yield isa.Compute(1 + (cid * 3 + i) % 5)
            yield isa.BarrierOp(i % 2)

    return _config(), [prog(cid) for cid in range(16)], setup


def _hardened_faults():
    # Seeded glitches and S-CSMA miscounts on a hardened 4x4 network:
    # spurious releases, watchdog retries and one failover.
    cfg = _config(watchdog_budget=64, watchdog_retries=2).with_(
        faults=FaultPlan(seed=3, gline_glitch_rate=0.01,
                         scsma_miscount_rate=0.01))
    return cfg, StressWorkload(ops_per_core=20, barriers=6, locks=4,
                               seed=3), None


def _segment_failover():
    # A dead gather line in cluster 1: its cores complete every episode
    # in a software segment that still joins the top level.
    def setup(chip):
        chip.barrier_impl.networks[0].clusters[1].lines[0].stuck = 0

    cfg = _config(clusters=True, watchdog_budget=64, segment_failover=True)
    return cfg, SyntheticBarrierWorkload(iterations=3), setup


def _flat_allreduce():
    return (_collectives(_config()),
            CollectiveAllReduceWorkload(iterations=7), None)


def _hierarchical_allreduce():
    return (_collectives(_config(clusters=True), integrity="echo"),
            CollectiveAllReduceWorkload(iterations=7), None)


def _allreduce_failover():
    # A dead collective wire: the watchdog fails the network over and
    # every episode completes over the software all-reduce.
    def setup(chip):
        chip.collective_impl.networks[0].lines[0].stuck = 0

    return (_collectives(_config(), watchdog_budget=64),
            CollectiveAllReduceWorkload(iterations=3), setup)


def _allreduce_segment_failover():
    # A dead wire in cluster 1 of the collective hierarchy: that
    # cluster's cores combine in software and join the top network.
    # The second episode then aborts the whole operation, and the run
    # ends in a known hang of that failover path (cores 8-15 spin in the
    # software all-reduce); both engines must report it alike.
    def setup(chip):
        chip.collective_impl.networks[0].clusters[1].lines[0].stuck = 0

    cfg = _collectives(_config(clusters=True, segment_failover=True),
                       watchdog_budget=64)
    return cfg, CollectiveAllReduceWorkload(iterations=3), setup


SCENARIOS = {
    "flat-barrier": _flat_barrier,
    "hierarchical-barrier": _hierarchical_barrier,
    "timemux-barrier": _timemux_barrier,
    "hardened-faults": _hardened_faults,
    "segment-failover": _segment_failover,
    "flat-allreduce": _flat_allreduce,
    "hierarchical-allreduce": _hierarchical_allreduce,
    "allreduce-failover": _allreduce_failover,
    "allreduce-segment-failover": _allreduce_segment_failover,
}


def _run(scenario, obs=None):
    """Run *scenario* on a fresh chip: the chip, and its cycle count or
    the error that ended the run."""
    cfg, workload, setup = scenario()
    chip = CMP(cfg, barrier="gl")
    if setup is not None:
        setup(chip)
    if obs is not None:
        chip.set_obs(obs)
    try:
        outcome = chip.run(workload).total_cycles
        if hasattr(workload, "verify"):
            workload.verify(chip)
    except ReproError as exc:
        outcome = f"{type(exc).__name__}: {exc}"
    return chip, outcome


def _observe(scenario):
    """Everything a fully observed run of *scenario* reports, and the
    number of events its engine executed."""
    obs = Observability.full(16, capacity=None)
    chip, outcome = _run(scenario, obs)
    trace = [[ev.time, ev.source, ev.kind, ev.detail]
             for ev in obs.tracer.events if ev.kind != "engine.run.end"]
    return ({"outcome": outcome, "stats": chip.stats.to_dict(),
             "trace": trace, "metrics": obs.metrics.to_dict()},
            chip.engine.events_executed)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_batched_run_matches_unbatched_engine(name, monkeypatch):
    batched, batched_events = _observe(SCENARIOS[name])
    monkeypatch.setitem(sim.BACKENDS, "heap", UnbatchedEngine)
    unbatched, unbatched_events = _observe(SCENARIOS[name])
    assert batched == unbatched
    assert batched_events < unbatched_events


def test_scenarios_reach_their_fault_paths():
    """The failover scenarios do fail over: otherwise they would only
    repeat the clean ones."""
    def counters(name):
        return _run(SCENARIOS[name])[0].stats.counters

    assert counters("hardened-faults")["faults.watchdog.failovers"] == 1
    assert counters("segment-failover")[
        "faults.failover.segment_arrivals"] > 0
    assert counters("allreduce-failover")[
        "faults.collective.failovers"] == 1
    assert counters("allreduce-segment-failover")[
        "faults.collective.segment_failovers"] > 0
