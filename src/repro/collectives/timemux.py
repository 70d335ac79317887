"""Time-multiplexed collective contexts (shared physical wire budget).

The same scheme as :mod:`repro.gline.timemux`: ``time_slots`` logical
contexts share one network's physical wires by dividing the clock into
recurring slots -- context *s* drives and samples only in cycles
congruent to *s* modulo ``time_slots``.  Behaviourally, each context is
a :class:`~repro.collectives.network.CollectiveNetwork` built with a
slot offset: its ``line_latency`` equals the slot period, and its
col_reg writes are aligned to its slot phase.  Reduction rounds
therefore take ``time_slots`` cycles each, but the wire budget stays
that of a single fabric no matter how many collectives are in flight.
"""

from __future__ import annotations

from dataclasses import replace

from ..common.errors import ConfigError
from ..common.params import GLineConfig
from ..common.stats import StatsRegistry
from ..sim.engine import Engine
from .config import CollectiveConfig
from .network import CollectiveNetwork


def build_time_multiplexed(engine: Engine, stats: StatsRegistry,
                           rows: int, cols: int,
                           gl_config: GLineConfig | None = None,
                           coll_config: CollectiveConfig | None = None,
                           name: str = "colltm"
                           ) -> list[CollectiveNetwork]:
    """Build ``coll_config.time_slots`` logical contexts sharing one
    physical fabric's wire budget, indexable by ``CollectiveOp.ident``,
    each with its slot offset."""
    gl_config = gl_config or GLineConfig()
    coll_config = coll_config or CollectiveConfig()
    num_slots = coll_config.time_slots
    if num_slots < 1:
        raise ConfigError("time_slots must be >= 1 to time-multiplex")
    slot_gl = replace(gl_config,
                      line_latency=gl_config.line_latency * num_slots)
    return [CollectiveNetwork(engine, stats, rows, cols, slot_gl,
                              coll_config, name=f"{name}.s{slot}",
                              slot=slot * gl_config.line_latency)
            for slot in range(num_slots)]
