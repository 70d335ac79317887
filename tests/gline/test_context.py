"""Every G-line sync context answers the same calls.

Barrier contexts (flat, sub-mesh, hierarchical, time-multiplexed) and
collective contexts (flat, hierarchical, time-multiplexed) are all
network objects with one lifecycle: the chip threads its stats
registry, observability bundle and fault injector through each of them
the same way, and each reports its fault state and wires the same way.
One builder decides the shape of both kinds.
"""

import pytest

from repro.collectives import (CollectiveConfig, CollectiveNetwork,
                               HierarchicalCollectiveNetwork,
                               total_wires as collective_total_wires)
from repro.common.errors import CapacityError
from repro.common.params import GLineConfig
from repro.common.stats import StatsRegistry
from repro.gline import (GLineBarrierNetwork, Hierarchy,
                         HierarchicalGLineBarrier, build_sync_contexts,
                         submesh_core_ids, total_wires)
from repro.obs import Observability
from repro.sim.engine import Engine

#: kind -> the flat and hierarchy classes the chip builds it with, the
#: name it gives them and what else their constructors take.
CLASSES = {
    "barrier": (GLineBarrierNetwork, HierarchicalGLineBarrier, "glnet",
                {}),
    "collective": (CollectiveNetwork, HierarchicalCollectiveNetwork,
                   "coll", {"coll_config": CollectiveConfig(enabled=True)}),
}


def contexts(kind, engine, stats, rows, cols, gl_config=None, **shape):
    """The contexts of *kind* the builder makes, shaped by *shape*."""
    flat, hierarchical, name, kwargs = CLASSES[kind]
    return build_sync_contexts(flat, hierarchical, engine, stats, rows,
                               cols, gl_config or GLineConfig(), name=name,
                               **shape, **kwargs)


#: kind -> builder of that kind's contexts: flat, sub-mesh and slotted
#: ones on a 4x4 mesh (the sub-mesh inside an 8-column chip),
#: hierarchical ones on 8x8.
KINDS = {
    "barrier-flat": lambda e, s: contexts("barrier", e, s, 4, 4),
    "barrier-submesh": lambda e, s: [GLineBarrierNetwork(
        e, s, 4, 4, core_ids=submesh_core_ids(8, 0, 4, 4, 4))],
    "barrier-hierarchical": lambda e, s: contexts("barrier", e, s, 8, 8),
    "barrier-2slot": lambda e, s: contexts("barrier", e, s, 4, 4, slots=2),
    "collective-flat": lambda e, s: contexts("collective", e, s, 4, 4),
    "collective-hierarchical": lambda e, s: contexts("collective", e, s,
                                                     8, 8),
    "collective-2slot": lambda e, s: contexts("collective", e, s, 4, 4,
                                              slots=2),
}


def build(kind):
    return KINDS[kind](Engine(), StatsRegistry(64))


def levels(ctx):
    """The networks *ctx* is made of: every level of a hierarchy."""
    return ctx.levels if isinstance(ctx, Hierarchy) else [ctx]


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_sinks_reach_every_level(kind):
    for ctx in build(kind):
        stats = StatsRegistry(64)
        obs = Observability.full(64)
        injector = object()
        ctx.set_stats(stats)
        ctx.set_obs(obs)
        ctx.set_injector(injector)
        for net in levels(ctx):
            assert net.stats is stats
            assert net.tracer is obs.tracer
            assert net.metrics is obs.metrics
            assert net.flight is obs.flight
            assert net.injector is injector


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_fault_state_reads_the_same(kind):
    for ctx in build(kind):
        assert ctx.quarantined is False
        assert (ctx.detections, ctx.retries) == (0, 0)
        assert list(ctx.failover_reports) == []
        assert ctx.failover_reports_dropped == 0
        assert ctx.num_cores in (16, 64)
        assert ctx.num_glines > 0


def test_total_wires_counts_shared_slots_once():
    assert collective_total_wires is total_wires
    for kind in CLASSES:
        one = build(f"{kind}-flat")[0].num_glines
        assert total_wires(build(f"{kind}-2slot")) == one
        assert total_wires(contexts(kind, Engine(), StatsRegistry(16), 4, 4,
                                    count=2)) == 2 * one


@pytest.mark.parametrize("kind", sorted(CLASSES))
def test_builder_decides_every_shape(kind):
    flat, hierarchical, name, _ = CLASSES[kind]

    def shaped(rows, cols, **shape):
        return contexts(kind, Engine(), StatsRegistry(rows * cols), rows,
                        cols, **shape)

    # Replicas: flat while the mesh fits the S-CSMA fan-in, each with
    # its own wires, and numbered only when there is more than one.
    (one,) = shaped(4, 4)
    assert (type(one), one.name, one.slot) == (flat, name, None)
    assert one.num_glines == 10
    pair = shaped(4, 4, count=2)
    assert [(type(c), c.name) for c in pair] == \
        [(flat, f"{name}0"), (flat, f"{name}1")]
    assert total_wires(pair) == 2 * one.num_glines
    # Beyond it, a hierarchy of clusters under a top network.
    (big,) = shaped(8, 8)
    assert type(big) is hierarchical and big.name == name
    assert [net.name for net in big.levels] == [
        f"{name}.c0_0", f"{name}.c0_1", f"{name}.c1_0", f"{name}.c1_1",
        f"{name}.top"]
    # Time slots: flat contexts on one network's wires, each clocked at
    # the slot period from its own offset.
    slots = shaped(4, 4, slots=2)
    assert [(type(c), c.name, c.slot, c.gl_config.line_latency)
            for c in slots] == [(flat, f"{name}.s0", 0, 2),
                                (flat, f"{name}.s1", 1, 2)]
    assert total_wires(slots) == one.num_glines
    # A hierarchy cannot share one network's wires.
    with pytest.raises(CapacityError):
        shaped(8, 8, slots=2)


# ---------------------------------------------------------------------- #
# One tick chain per context
# ---------------------------------------------------------------------- #
def _tick_log(net):
    """Record the cycle of every tick *net* runs."""
    cycles = []
    tick = net._tick

    def logged():
        cycles.append(net.engine.now)
        tick()
    net._tick = logged
    return cycles


def _arrive_all(engine, net, cores, collective):
    for cid in range(cores):
        if collective:
            engine.schedule(cid % 3, net.arrive, cid, "sum", cid + 1, None)
        else:
            engine.schedule(cid % 3, net.arrive, cid, None)


@pytest.mark.parametrize("kind", ["barrier-flat", "collective-flat"])
def test_failover_outside_the_tick_cancels_the_scheduled_tick(kind):
    # A watchdog or an upper hierarchy level can fail a context over
    # while its clock runs; the tick it had scheduled must not run on
    # the closed episode.
    engine = Engine()
    net = KINDS[kind](engine, StatsRegistry(16))[0]
    ticks = _tick_log(net)
    _arrive_all(engine, net, 16, kind.startswith("collective"))
    engine.run(until=4)
    assert net.active
    engine.schedule(0, net.failover, "test")
    engine.run(until=5)
    assert ticks[-1] == 4
    engine.run()
    assert ticks[-1] == 4 and not net.active


def test_watchdog_retry_while_clocked_keeps_one_tick_chain():
    # An integrity-hardened collective free-runs its clock while the
    # episode is open; a watchdog expiry then retries with the clock
    # running, and the retry must restart the one chain, not add one.
    engine = Engine()
    cc = CollectiveConfig(enabled=True, value_width=8, integrity="echo",
                          watchdog_budget=20, watchdog_retries=2)
    net = CollectiveNetwork(engine, StatsRegistry(16), 4, 4,
                            coll_config=cc)
    ticks = _tick_log(net)
    _arrive_all(engine, net, 16, True)
    engine.run()
    assert net.retries == 2 and net.quarantined
    assert len(ticks) == len(set(ticks))
