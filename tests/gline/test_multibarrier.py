"""Multi-context and sub-mesh barrier tests (space multiplexing)."""

import pytest

from helpers import make_chip, run_uniform
from repro.common.errors import CapacityError, ConfigError
from repro.common.params import GLineConfig
from repro.common.stats import StatsRegistry
from repro.cpu import isa
from repro.gline import (GLineBarrierNetwork, HierarchicalGLineBarrier,
                         build_sync_contexts, submesh_core_ids, total_wires)
from repro.sim.engine import Engine


def barrier_contexts(rows, cols, config=GLineConfig()):
    """The chip's barrier contexts: ``num_barriers`` replicas."""
    engine, stats = Engine(), StatsRegistry(rows * cols)
    return build_sync_contexts(
        GLineBarrierNetwork, HierarchicalGLineBarrier, engine, stats, rows,
        cols, config, name="glnet", count=config.num_barriers)


def test_build_contexts_counts():
    ctxs = barrier_contexts(4, 4, GLineConfig(num_barriers=3))
    assert len(ctxs) == 3
    assert all(isinstance(c, GLineBarrierNetwork) for c in ctxs)
    assert total_wires(ctxs) == 30


def test_build_contexts_falls_back_to_hierarchical():
    ctxs = barrier_contexts(8, 8)
    assert isinstance(ctxs[0], HierarchicalGLineBarrier)


def test_two_barrier_contexts_on_chip():
    """Cores alternate between two independent barrier contexts."""
    chip = make_chip(4, "gl",)
    # Rebuild with two contexts.
    from repro import CMPConfig
    from repro.chip import CMP
    cfg = CMPConfig.for_cores(4).with_(
        gline=GLineConfig(num_barriers=2))
    chip = CMP(cfg, barrier="gl")

    def prog(cid):
        yield isa.BarrierOp(0)
        yield isa.BarrierOp(1)
        yield isa.BarrierOp(0)

    res = run_uniform(chip, prog)
    assert chip.stats.num_barriers() == 3
    assert chip.barrier_impl.networks[0].barriers_completed == 2
    assert chip.barrier_impl.networks[1].barriers_completed == 1


def test_unprovisioned_context_rejected():
    chip = make_chip(4, "gl")

    def prog(cid):
        yield isa.BarrierOp(5)

    with pytest.raises(ConfigError):
        run_uniform(chip, prog)


def test_submesh_context():
    """A context spanning only half the chip synchronizes those cores."""
    engine, stats = Engine(), StatsRegistry(16)
    # Left 4x2 half of a 4x4 chip: global tile ids 0,1, 4,5, 8,9, 12,13.
    net = GLineBarrierNetwork(engine, stats, 4, 2, core_ids=submesh_core_ids(
        mesh_cols=4, row0=0, col0=0, rows=4, cols=2))
    expected_ids = [0, 1, 4, 5, 8, 9, 12, 13]
    assert net.core_ids == expected_ids
    released = []
    for cid in expected_ids:
        net.arrive(cid, lambda c=cid: released.append(c))
    engine.run()
    assert sorted(released) == expected_ids


def test_submesh_validation():
    engine, stats = Engine(), StatsRegistry(64)
    # The ids fit a 10-column mesh, but not one network's fan-in.
    with pytest.raises(CapacityError):
        GLineBarrierNetwork(engine, stats, 8, 8, core_ids=submesh_core_ids(
            mesh_cols=10, row0=0, col0=0, rows=8, cols=8))
    with pytest.raises(ConfigError):
        submesh_core_ids(mesh_cols=4, row0=0, col0=0, rows=0, cols=2)
