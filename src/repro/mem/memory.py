"""Off-chip memory controller.

Fixed-latency (Table 1: 400 cycles) with optional bank-level serialization:
each of ``num_banks`` banks services one access at a time, so bursts queue.
The paper's configuration does not specify banking, so the default keeps a
single unlimited-bandwidth port; ablations can enable banking.
"""

from __future__ import annotations

from typing import Any, Callable

from ..common.stats import StatsRegistry
from ..sim.component import Component
from ..sim.engine import Engine


class MemoryController(Component):
    """DRAM access timing for one tile's memory port."""

    def __init__(self, engine: Engine, stats: StatsRegistry, tile: int,
                 latency: int, num_banks: int = 0):
        super().__init__(engine, stats, f"mem{tile}")
        self.tile = tile
        self.latency = latency
        #: 0 disables banking (unlimited bandwidth).
        self.num_banks = num_banks
        self._bank_free: list[int] = [0] * max(num_banks, 0)
        self.accesses = 0

    def access(self, line_addr: int, callback: Callable[..., None],
               *args: Any) -> None:
        """Schedule ``callback(*args)`` after the memory access
        completes."""
        self.accesses += 1
        self.stats.bump("mem.accesses")
        if self.num_banks:
            bank = (line_addr // 64) % self.num_banks
            start = max(self.now, self._bank_free[bank])
            finish = start + self.latency
            self._bank_free[bank] = finish
            self.engine.schedule_at(finish, callback, *args)
        else:
            self.schedule(self.latency, callback, *args)
