"""Time-multiplexed collective contexts (shared physical wire budget).

The same scheme as :mod:`repro.gline.timemux`: ``time_slots`` logical
contexts share one network's physical wires by dividing the clock into
recurring slots -- context *s* drives and samples only in cycles
congruent to *s* modulo ``time_slots``.  Behaviourally, each context is
a :class:`~repro.collectives.network.CollectiveNetwork` whose
``line_latency`` equals the slot period, with arrivals aligned to the
context's slot phase.  Reduction rounds therefore take ``time_slots``
cycles each, but the wire budget stays that of a single fabric no
matter how many collectives are in flight.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import Callable

from ..common.errors import ConfigError
from ..common.params import GLineConfig
from ..common.stats import StatsRegistry
from ..sim.engine import Engine
from .config import CollectiveConfig
from .fabric import CollectiveFabric
from .network import CollectiveNetwork


class CollectiveSlotContext:
    """One logical collective context bound to a recurring time slot.

    Exposes the same ``arrive`` interface as a plain network, so it
    plugs into :class:`~repro.collectives.library.GLCollective`.
    """

    def __init__(self, net: CollectiveNetwork, slot: int, num_slots: int,
                 engine: Engine):
        self.net = net
        self.slot = slot
        self.num_slots = num_slots
        self.engine = engine

    def arrive(self, core_id: int, kind: str, value: int,
               resume: Callable[..., None] | None,
               delay: int = 0) -> None:
        """Align the col_reg write, *delay* cycles from now, so it
        becomes visible in our slot."""
        write = self.net.gl_config.barreg_write_cycles
        visible = self.engine.now + delay + write
        align = (self.slot - visible) % self.num_slots
        self.net.arrive(core_id, kind, value, resume, delay + align)

    # Pass-throughs used by GLCollective / reports / tests.
    @property
    def num_cores(self) -> int:
        return self.net.num_cores

    @property
    def num_glines(self) -> int:
        return self.net.num_glines

    @property
    def fabric(self) -> CollectiveFabric:
        return self.net.fabric

    @property
    def collectives_completed(self) -> int:
        return self.net.collectives_completed

    @property
    def quarantined(self) -> bool:
        return self.net.quarantined

    @property
    def detections(self) -> int:
        return self.net.detections

    @property
    def retries(self) -> int:
        return self.net.retries

    @property
    def failovers(self) -> int:
        return self.net.failovers

    @property
    def failover_reports(self) -> "deque[str]":
        return self.net.failover_reports

    @property
    def int_detections(self) -> int:
        return self.net.int_detections

    @property
    def int_round_retries(self) -> int:
        return self.net.int_round_retries

    @property
    def int_corrections(self) -> int:
        return self.net.int_corrections

    @property
    def int_op_retries(self) -> int:
        return self.net.int_op_retries

    @property
    def int_failovers(self) -> int:
        return self.net.int_failovers

    @property
    def integrity_log(self) -> "deque[str]":
        return self.net.integrity_log

    def set_injector(self, injector) -> None:
        self.net.set_injector(injector)

    def set_stats(self, stats: StatsRegistry) -> None:
        self.net.set_stats(stats)

    def set_obs(self, obs) -> None:
        self.net.set_obs(obs)

    def fully_idle(self) -> bool:
        return self.net.fully_idle()


def build_time_multiplexed(engine: Engine, stats: StatsRegistry,
                           rows: int, cols: int,
                           gl_config: GLineConfig | None = None,
                           coll_config: CollectiveConfig | None = None,
                           name: str = "colltm"
                           ) -> list[CollectiveSlotContext]:
    """Build ``coll_config.time_slots`` logical contexts sharing one
    physical fabric's wire budget, indexable by ``CollectiveOp.ident``."""
    gl_config = gl_config or GLineConfig()
    coll_config = coll_config or CollectiveConfig()
    num_slots = coll_config.time_slots
    if num_slots < 1:
        raise ConfigError("time_slots must be >= 1 to time-multiplex")
    slot_gl = replace(gl_config,
                      line_latency=gl_config.line_latency * num_slots)
    contexts = []
    for slot in range(num_slots):
        net = CollectiveNetwork(engine, stats, rows, cols, slot_gl,
                                coll_config, name=f"{name}.s{slot}")
        contexts.append(CollectiveSlotContext(
            net, slot * gl_config.line_latency,
            num_slots * gl_config.line_latency, engine))
    return contexts


def physical_wires(contexts: list[CollectiveSlotContext]) -> int:
    """The shared physical wire count (one fabric, not per-context)."""
    return contexts[0].num_glines if contexts else 0
