"""Multiple concurrent barrier contexts (the paper's future-work
space-multiplexing extension).

The base design dedicates one G-line network to one barrier.  The paper's
future work proposes "multiplexing in space and time, in which several
barrier executions can coexist".  Space multiplexing is direct: replicate
the (cheap: ``2*(rows+1)`` wires) network per context and let ``BarrierOp
(barrier_id=k)`` select context *k*.  This module builds the context
vector; :class:`~repro.gline.barrier.GLBarrier` dispatches on it.

A context may also span a *subset* of cores (e.g. the two halves of the
chip synchronizing independently): pass ``core_ids`` covering a sub-mesh.
"""

from __future__ import annotations

from ..common.errors import CapacityError, ConfigError
from ..common.params import GLineConfig
from ..common.stats import StatsRegistry
from ..sim.engine import Engine
from .hierarchical import HierarchicalGLineBarrier
from .network import GLineBarrierNetwork


def build_contexts(engine: Engine, stats: StatsRegistry, rows: int,
                   cols: int, config: GLineConfig | None = None,
                   name: str = "glnet"):
    """Build ``config.num_barriers`` full-chip barrier contexts.

    Falls back to the hierarchical scheme automatically when the mesh
    exceeds what a single network supports.
    """
    config = config or GLineConfig()
    max_dim = config.max_transmitters + 1
    contexts = []
    for k in range(config.num_barriers):
        ctx_name = f"{name}{k}" if config.num_barriers > 1 else name
        if rows <= max_dim and cols <= max_dim:
            contexts.append(GLineBarrierNetwork(
                engine, stats, rows, cols, config, name=ctx_name))
        else:
            contexts.append(HierarchicalGLineBarrier(
                engine, stats, rows, cols, config, name=ctx_name))
    return contexts


def build_submesh_context(engine: Engine, stats: StatsRegistry,
                          mesh_cols: int, row0: int, col0: int, rows: int,
                          cols: int, config: GLineConfig | None = None,
                          name: str = "glsub") -> GLineBarrierNetwork:
    """Build a barrier context over the sub-mesh with top-left corner
    ``(row0, col0)`` and shape ``rows x cols`` of a chip whose mesh has
    ``mesh_cols`` columns.  Core ids are global tile ids."""
    config = config or GLineConfig()
    if rows < 1 or cols < 1:
        raise ConfigError("sub-mesh must be at least 1x1")
    if row0 < 0 or col0 < 0:
        raise ConfigError("sub-mesh origin must be non-negative")
    if col0 + cols > mesh_cols:
        # Without this check the id arithmetic below silently wraps the
        # overflowing columns onto the next mesh row -- a context that
        # "works" but synchronizes the wrong cores.
        raise ConfigError(
            f"sub-mesh columns {col0}..{col0 + cols - 1} overflow a "
            f"{mesh_cols}-column mesh (core ids would wrap to the next "
            f"row)")
    max_dim = config.max_transmitters + 1
    if rows > max_dim or cols > max_dim:
        raise CapacityError(
            f"sub-mesh {rows}x{cols} exceeds the {max_dim}x{max_dim} "
            f"single-network limit")
    ids = [(row0 + r) * mesh_cols + (col0 + c)
           for r in range(rows) for c in range(cols)]
    return GLineBarrierNetwork(engine, stats, rows, cols, config,
                               name=name, core_ids=ids)
