"""Property-based independence of replicated barrier contexts.

Random disjoint sub-meshes of one chip, each carrying its own barrier
context, with fully interleaved arrival schedules: every context must
release exactly its own cores, releases never couple across contexts
(a context's release time depends only on its own last arrival), and
full-chip replicated contexts stay episode-independent under
interleaving.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.params import GLineConfig
from repro.common.stats import StatsRegistry
from repro.gline import (GLineBarrierNetwork, HierarchicalGLineBarrier,
                         build_sync_contexts, submesh_core_ids)
from repro.sim.engine import Engine


def submesh_ids(mesh_cols, row0, col0, rows, cols):
    return [(row0 + r) * mesh_cols + (col0 + c)
            for r in range(rows) for c in range(cols)]


@st.composite
def disjoint_submeshes(draw):
    """A mesh plus two vertically stacked, disjoint sub-meshes of it."""
    mesh_cols = draw(st.integers(2, 7))
    rows_a = draw(st.integers(1, 3))
    rows_b = draw(st.integers(1, 3))
    gap = draw(st.integers(0, 2))
    cols_a = draw(st.integers(1, mesh_cols))
    cols_b = draw(st.integers(1, mesh_cols))
    col0_a = draw(st.integers(0, mesh_cols - cols_a))
    col0_b = draw(st.integers(0, mesh_cols - cols_b))
    row0_b = rows_a + gap
    mesh_rows = row0_b + rows_b
    return (mesh_rows, mesh_cols,
            (0, col0_a, rows_a, cols_a),
            (row0_b, col0_b, rows_b, cols_b))


@settings(max_examples=40, deadline=None)
@given(layout=disjoint_submeshes(), data=st.data())
def test_disjoint_submesh_contexts_are_independent(layout, data):
    mesh_rows, mesh_cols, box_a, box_b = layout
    engine = Engine()
    stats = StatsRegistry(mesh_rows * mesh_cols)
    config = GLineConfig()
    nets = [GLineBarrierNetwork(engine, stats, box[2], box[3], config,
                                name=f"sub{i}",
                                core_ids=submesh_core_ids(mesh_cols, *box))
            for i, box in enumerate((box_a, box_b))]
    members = [submesh_ids(mesh_cols, *box) for box in (box_a, box_b)]
    assert not set(members[0]) & set(members[1])

    releases: list[dict[int, int]] = [{}, {}]
    arrivals: list[dict[int, int]] = [{}, {}]
    for i, net in enumerate(nets):
        for cid in members[i]:
            t = data.draw(st.integers(0, 60), label=f"t[{i}][{cid}]")
            arrivals[i][cid] = t
            engine.schedule_at(t, lambda c=cid, n=net, i=i: n.arrive(
                c, lambda c=c, i=i: releases[i].__setitem__(c, engine.now)))
    engine.run()

    for i in (0, 1):
        # Exactly this context's cores released, simultaneously, after
        # this context's own last arrival -- the sibling is irrelevant.
        assert sorted(releases[i]) == sorted(members[i])
        assert len(set(releases[i].values())) == 1
        last = max(arrivals[i].values())
        assert min(releases[i].values()) > \
            last + nets[i].config.barreg_write_cycles
        assert nets[i].fully_idle()
    assert engine.pending() == 0


@settings(max_examples=25, deadline=None)
@given(shape=st.tuples(st.integers(1, 5), st.integers(1, 5)),
       data=st.data())
def test_full_chip_contexts_stay_independent_under_interleaving(shape,
                                                                data):
    """Two full-chip replicated contexts, arrivals interleaved at
    random: each context releases on its own schedule."""
    rows, cols = shape
    n = rows * cols
    engine = Engine()
    stats = StatsRegistry(n)
    config = GLineConfig(num_barriers=2)
    nets = build_sync_contexts(GLineBarrierNetwork,
                               HierarchicalGLineBarrier, engine, stats,
                               rows, cols, config, name="glnet",
                               count=config.num_barriers)
    assert len(nets) == 2

    releases: list[dict[int, int]] = [{}, {}]
    lasts = [0, 0]
    for i, net in enumerate(nets):
        for cid in range(n):
            t = data.draw(st.integers(0, 40), label=f"t[{i}][{cid}]")
            lasts[i] = max(lasts[i], t)
            engine.schedule_at(t, lambda c=cid, nt=net, i=i: nt.arrive(
                c, lambda c=c, i=i: releases[i].__setitem__(c, engine.now)))
    engine.run()

    for i in (0, 1):
        assert sorted(releases[i]) == list(range(n))
        assert len(set(releases[i].values())) == 1
        assert min(releases[i].values()) > \
            lasts[i] + config.barreg_write_cycles
    assert engine.pending() == 0
