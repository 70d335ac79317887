"""GL: the hardware barrier implementation backed by the G-line network.

From the core's point of view (Figure 3 of the paper) a barrier is::

    GL_Barrier() {
        mov 1, bar_reg      # arrival (S1)
      loop:
        bnz bar_reg, loop   # wait until hardware clears bar_reg (S2+S3)
    }

The op sequence models the library-call entry overhead (the paper measures
13 cycles end-to-end against the 4-cycle theoretical minimum and attributes
the difference to its application library; ``GLineConfig.entry_overhead``
reproduces that) followed by the bar_reg write; the "spin on bar_reg" is
the core sleeping until the release stage clears the register -- a core
spinning on its own register produces no external activity, so the timing
is identical.

Without a software fallback the library decides nothing at entry, so the
overhead is folded into the arrival as its delay: the bar_reg write lands
at the same cycle with one event fewer.  With a fallback the overhead
stays a ``Compute``, because the hardware-or-software decision is taken
when it ends.
"""

from __future__ import annotations

from typing import Generator

from ..common.errors import ConfigError, GLineError
from ..common.params import GLineConfig
from ..cpu import isa
from ..cpu.core import HWBarrierArrive
from ..faults import FAILOVER
from ..sync.api import BarrierImpl


class GLBarrier(BarrierImpl):
    """Hardware G-line barrier bound to one or more network contexts."""

    name = "GL"

    def __init__(self, networks, config: GLineConfig | None = None,
                 fallback: BarrierImpl | None = None):
        """*networks*: one network per barrier context (space
        multiplexing extension; the base design has a single context).
        Each entry is a
        :class:`~repro.gline.network.GLineBarrierNetwork` (flat, sub-mesh
        or time-multiplexed) or a
        :class:`~repro.gline.hierarchical.HierarchicalGLineBarrier`.

        *fallback* is the software barrier used to complete an episode
        when the watchdog quarantines a network (repro.faults); the chip
        wires it automatically when the watchdog is enabled."""
        if not networks:
            raise ConfigError("GLBarrier needs at least one network context")
        self.networks = list(networks)
        self.config = config or GLineConfig()
        self.fallback = fallback
        #: Each context's arrival op without a fallback: it depends on
        #: the context alone, so every core yields the same one.
        self._arrivals = [HWBarrierArrive(net, self.config.entry_overhead)
                          for net in self.networks]
        #: Cores of the current episode already committed to the software
        #: fallback, per context.  While non-zero, *every* core of that
        #: episode goes software even if the recovery controller re-admits
        #: the network mid-episode -- splitting one episode between the
        #: hardware and software barriers would deadlock both cohorts.
        self._sw_cohort: dict[int, int] = {}

    def sequence(self, core, barrier_id: int) -> Generator:
        if not (0 <= barrier_id < len(self.networks)):
            raise ConfigError(
                f"barrier context {barrier_id} not provisioned "
                f"(have {len(self.networks)})")
        net = self.networks[barrier_id]
        overhead = self.config.entry_overhead
        if self.fallback is None:
            if (yield self._arrivals[barrier_id]) == FAILOVER:
                raise GLineError(
                    f"barrier context {barrier_id} failed over but no "
                    f"software fallback is configured")
            return
        if overhead:
            yield isa.Compute(overhead)
        if self._sw_cohort.get(barrier_id, 0) or net.quarantined:
            # The network is quarantined (or this episode's cohort is
            # already completing over software); go software directly.
            yield from self._join_software(core, barrier_id, net)
            return
        outcome = yield HWBarrierArrive(net)
        if outcome == FAILOVER:
            yield from self._join_software(core, barrier_id, net)

    def _join_software(self, core, barrier_id: int, net) -> Generator:
        """Complete this episode over the software fallback, keeping the
        episode's cohort together (see ``_sw_cohort``)."""
        core.stats.bump("faults.failover.sw_arrivals")
        joined = self._sw_cohort.get(barrier_id, 0) + 1
        # The software episode is fully subscribed once every core has
        # joined; the next episode decides hardware-vs-software afresh.
        self._sw_cohort[barrier_id] = \
            0 if joined >= net.num_cores else joined
        yield from self.fallback.sequence(core, barrier_id)

    def describe(self) -> str:
        wires = self.networks[0].num_glines
        desc = (f"G-line hardware barrier ({len(self.networks)} context(s), "
                f"{wires} G-lines per context, "
                f"entry overhead {self.config.entry_overhead} cycles)")
        if self.fallback is not None:
            desc += f" with {self.fallback.name} watchdog failover"
        return desc
