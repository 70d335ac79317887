"""Time-multiplexed barrier contexts (the paper's future-work extension).

Space multiplexing (``multibarrier``) replicates the G-line network per
barrier context.  *Time* multiplexing shares one physical network between
``num_slots`` logical barriers by dividing the clock into recurring slots:
the controllers of logical barrier *b* drive and sample the wires only in
cycles congruent to *b* modulo ``num_slots``.

Behavioural model: each logical context is a
:class:`~repro.gline.network.GLineBarrierNetwork` whose ``line_latency``
equals the slot period (a signal asserted in one of barrier *b*'s slots is
consumed in its next slot), with arrivals aligned to the context's slot
phase.  Consequences, faithfully reproduced:

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


class SlotContext:
    """One logical barrier context bound to a recurring time slot.

    Exposes the same ``arrive`` interface as a plain network, so it plugs
    into :class:`~repro.gline.barrier.GLBarrier` directly.
    """

    def __init__(self, net: GLineBarrierNetwork, slot: int,
                 num_slots: int, engine: Engine):
        self.net = net
        self.slot = slot
        self.num_slots = num_slots
        self.engine = engine

    def arrive(self, core_id: int, resume, delay: int = 0) -> None:
        """Align the bar_reg write, *delay* cycles from now, so it
        becomes visible in our slot."""
        write = self.net.config.barreg_write_cycles
        visible = self.engine.now + delay + write
        align = (self.slot - visible) % self.num_slots
        self.net.arrive(core_id, resume, delay + align)

    # Pass-throughs used by GLBarrier / reports / tests.
    @property
    def num_cores(self) -> int:
        return self.net.num_cores

    @property
    def num_glines(self) -> int:
        return self.net.num_glines

    @property
    def barriers_completed(self) -> int:
        return self.net.barriers_completed

    @property
    def samples(self):
        return self.net.samples

    # Fault-handling pass-throughs (repro.faults).  Each slot context has
    # its own logical network, so quarantine/recovery is naturally *per
    # segment*: one degraded slot falls back to software while the other
    # slots keep running on the shared physical wires.
    @property
    def quarantined(self) -> bool:
        return self.net.quarantined

    @property
    def recovery(self):
        return self.net.recovery

    @property
    def failover_reports(self):
        return self.net.failover_reports

    @property
    def failover_reports_dropped(self) -> int:
        return self.net.failover_reports_dropped

    @property
    def detections(self) -> int:
        return self.net.detections

    @property
    def retries(self) -> int:
        return self.net.retries

    @property
    def failovers(self) -> int:
        return self.net.failovers

    def set_injector(self, injector) -> None:
        self.net.injector = injector

    def set_stats(self, stats: StatsRegistry) -> None:
        self.net.set_stats(stats)


def build_time_multiplexed(engine: Engine, stats: StatsRegistry, rows: int,
                           cols: int, config: GLineConfig | None = None,
                           num_slots: int = 2, name: str = "gltm"
                           ) -> list[SlotContext]:
    """Build ``num_slots`` logical contexts sharing one physical network's
    wire budget.  Returns slot contexts indexable by ``BarrierOp.
    barrier_id``."""
    if num_slots < 1:
        raise ConfigError("num_slots must be >= 1")
    config = config or GLineConfig()
    slot_config = replace(config, line_latency=config.line_latency
                          * num_slots, num_barriers=1)
    contexts = []
    for slot in range(num_slots):
        net = GLineBarrierNetwork(engine, stats, rows, cols, slot_config,
                                  name=f"{name}.s{slot}")
        contexts.append(SlotContext(net, slot * config.line_latency,
                                    num_slots * config.line_latency,
                                    engine))
    return contexts


def physical_wires(contexts: list[SlotContext]) -> int:
    """The shared physical wire count (one network, not per-context)."""
    return contexts[0].num_glines if contexts else 0
