"""Time-multiplexed barrier contexts (the paper's future-work extension).

Space multiplexing (``multibarrier``) replicates the G-line network per
barrier context.  *Time* multiplexing shares one physical network between
``num_slots`` logical barriers by dividing the clock into recurring slots:
the controllers of logical barrier *b* drive and sample the wires only in
cycles congruent to *b* modulo ``num_slots``.

Behavioural model: each logical context is a
:class:`~repro.gline.network.GLineBarrierNetwork` built with a slot
offset.  Its ``line_latency`` equals the slot period (a signal asserted in
one of barrier *b*'s slots is consumed in its next slot), and its bar_reg
writes are aligned to its slot phase.  Consequences, faithfully
reproduced:

* ideal latency becomes ``3 * num_slots + 1`` cycles -- the three
  inter-stage hand-offs each wait a full slot period, the final release is
  consumed in one cycle -- plus up to ``num_slots - 1`` cycles of slot
  alignment (at ``num_slots = 1`` this reduces to the flat network's 4);
* the physical wire budget stays that of a *single* network --
  ``2 * (rows + 1)`` -- regardless of how many logical barriers share it.
"""

from __future__ import annotations

from dataclasses import replace

from ..common.errors import ConfigError
from ..common.params import GLineConfig
from ..common.stats import StatsRegistry
from ..sim.engine import Engine
from .network import GLineBarrierNetwork


def build_time_multiplexed(engine: Engine, stats: StatsRegistry, rows: int,
                           cols: int, config: GLineConfig | None = None,
                           num_slots: int = 2, name: str = "gltm"
                           ) -> list[GLineBarrierNetwork]:
    """Build ``num_slots`` logical contexts sharing one physical network's
    wire budget.  Returns networks indexable by ``BarrierOp.barrier_id``,
    each with its slot offset."""
    if num_slots < 1:
        raise ConfigError("num_slots must be >= 1")
    config = config or GLineConfig()
    slot_config = replace(config, line_latency=config.line_latency
                          * num_slots, num_barriers=1)
    return [GLineBarrierNetwork(engine, stats, rows, cols, slot_config,
                                name=f"{name}.s{slot}",
                                slot=slot * config.line_latency)
            for slot in range(num_slots)]
