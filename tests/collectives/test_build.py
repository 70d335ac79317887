"""Collective contexts from the one builder: replication, hierarchy
selection and time multiplexing over one shared wire budget.  The same
decisions are pinned for both kinds in ``tests/gline/test_context.py``."""

import random

import pytest

from repro.collectives import ops, total_wires
from repro.collectives.config import CollectiveConfig
from repro.collectives.hierarchical import HierarchicalCollectiveNetwork
from repro.collectives.network import CollectiveNetwork
from repro.common.errors import CapacityError
from repro.common.params import GLineConfig
from repro.common.stats import StatsRegistry
from repro.gline import build_sync_contexts
from repro.sim.engine import Engine


def build(rows, cols, **cc_kwargs):
    engine = Engine()
    stats = StatsRegistry(rows * cols)
    cc = CollectiveConfig(enabled=True, **cc_kwargs)
    return engine, build_sync_contexts(
        CollectiveNetwork, HierarchicalCollectiveNetwork, engine, stats,
        rows, cols, GLineConfig(), name="coll", count=cc.num_contexts,
        slots=cc.time_slots, coll_config=cc)


def test_flat_mesh_gets_flat_network():
    _, ctxs = build(4, 4)
    assert len(ctxs) == 1
    assert isinstance(ctxs[0], CollectiveNetwork)


def test_large_mesh_goes_hierarchical():
    _, ctxs = build(16, 16)
    assert isinstance(ctxs[0], HierarchicalCollectiveNetwork)


def test_space_multiplexed_contexts_replicate_wires():
    _, ctxs = build(3, 3, num_contexts=2)
    assert len(ctxs) == 2
    assert total_wires(ctxs) == 2 * ctxs[0].num_glines


def test_time_multiplexed_contexts_share_wires():
    _, ctxs = build(3, 3, time_slots=2)
    assert len(ctxs) == 2
    assert total_wires(ctxs) == ctxs[0].num_glines


def test_time_multiplexing_rejects_hierarchical_meshes():
    with pytest.raises(CapacityError):
        build(16, 16, time_slots=2)


def test_time_multiplexed_episodes_are_independent():
    engine, ctxs = build(2, 2, value_width=4, time_slots=2)
    rng = random.Random(7)
    vals = [[rng.randrange(16) for _ in range(4)] for _ in range(2)]
    got = [{}, {}]
    for cid in range(4):
        for k, kind in enumerate(("sum", "max")):
            engine.schedule(rng.randrange(6), ctxs[k].arrive, cid, kind,
                            vals[k][cid],
                            (lambda v=None, c=cid, k=k:
                             got[k].__setitem__(c, v)))
    engine.run()
    assert set(got[0].values()) == \
        {ops.reference_reduce("sum", vals[0], 4)}
    assert set(got[1].values()) == \
        {ops.reference_reduce("max", vals[1], 4)}
    assert all(ctx.fully_idle() for ctx in ctxs)
