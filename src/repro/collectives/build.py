"""Context builder: flat / hierarchical / time-multiplexed selection.

The collective analogue of ``repro.gline.multibarrier.build_contexts``:
one arrive-capable context per ``CollectiveOp.ident``.

* ``time_slots > 1``: that many contexts share one physical fabric's
  wire budget (time multiplexing; the mesh must fit a single fabric);
* otherwise ``num_contexts`` replicated networks (space multiplexing),
  each flat when the mesh fits the S-CSMA fan-in and two-level
  hierarchical beyond that.
"""

from __future__ import annotations

from ..common.errors import CapacityError
from ..common.params import GLineConfig
from ..common.stats import StatsRegistry
from ..sim.engine import Engine
from .config import CollectiveConfig
from .hierarchical import HierarchicalCollectiveNetwork
from .network import CollectiveNetwork
from .timemux import build_time_multiplexed


def build_collective_contexts(engine: Engine, stats: StatsRegistry,
                              rows: int, cols: int,
                              gl_config: GLineConfig | None = None,
                              coll_config: CollectiveConfig | None = None,
                              name: str = "coll") -> list:
    """Build the chip's collective contexts per *coll_config*."""
    gl_config = gl_config or GLineConfig()
    coll_config = coll_config or CollectiveConfig()
    max_dim = gl_config.max_transmitters + 1
    if coll_config.time_slots > 1:
        if rows > max_dim or cols > max_dim:
            raise CapacityError(
                f"time multiplexing shares one physical fabric, which "
                f"supports at most {max_dim}x{max_dim} cores; "
                f"{rows}x{cols} needs the hierarchical variant "
                f"(time_slots must be 1)")
        return build_time_multiplexed(engine, stats, rows, cols,
                                      gl_config, coll_config, name=name)
    contexts = []
    for k in range(coll_config.num_contexts):
        ctx_name = f"{name}{k}" if coll_config.num_contexts > 1 else name
        if rows <= max_dim and cols <= max_dim:
            contexts.append(CollectiveNetwork(
                engine, stats, rows, cols, gl_config, coll_config,
                name=ctx_name))
        else:
            contexts.append(HierarchicalCollectiveNetwork(
                engine, stats, rows, cols, gl_config, coll_config,
                name=ctx_name))
    return contexts
