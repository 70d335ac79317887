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

:class:`GLineLibrary` is that sequence for both kinds of G-line sync: a
barrier is a collective whose register write carries no operand
(:class:`repro.collectives.library.GLCollective` is the other kind).
"""

from __future__ import annotations

from typing import Generator

from ..common.errors import ConfigError, GLineError
from ..common.params import GLineConfig
from ..cpu import isa
from ..cpu.core import HWArrive
from ..faults import FAILOVER
from ..sync.api import BarrierImpl


class GLineLibrary:
    """The library behind a G-line barrier or collective op.  A subclass
    names its kind (*word*, the *title* of ``describe()``, the
    *sw_counter* bumped per core completing in software) and says, in
    ``sequence``, what its register write carries and what its fallback
    is asked for."""

    word: str
    title: str
    sw_counter: str

    def __init__(self, networks, entry_overhead: int = 0,
                 fallback=None) -> None:
        """*networks*: one flat, sub-mesh, time-multiplexed or
        hierarchical network per context (the base design has one).
        *fallback* completes an episode in software when the watchdog
        quarantines a network (repro.faults); the chip wires it when the
        watchdog is enabled."""
        if not networks:
            raise ConfigError(
                f"{type(self).__name__} needs at least one network context")
        self.networks = list(networks)
        self.entry_overhead = entry_overhead
        self.fallback = fallback
        #: Cores of the current episode already committed to the software
        #: fallback, per context.  While non-zero, *every* core of that
        #: episode goes software even if the recovery controller re-admits
        #: the network mid-episode -- splitting one episode between the
        #: hardware and software paths would deadlock both cohorts.
        self._sw_cohort: dict[int, int] = {}

    def _episode(self, core, ident: int, operands: tuple,
                 fallback_arg) -> Generator:
        """One episode on context *ident*: write *operands* to the
        core's register, or ask the fallback's sequence for
        *fallback_arg*; returns what the network or the fallback
        returns."""
        if not (0 <= ident < len(self.networks)):
            raise ConfigError(
                f"{self.word} context {ident} not provisioned "
                f"(have {len(self.networks)})")
        net = self.networks[ident]
        overhead = self.entry_overhead
        if self.fallback is None:
            outcome = yield HWArrive(net, operands, overhead)
            if outcome == FAILOVER:
                raise GLineError(
                    f"{self.word} context {ident} failed over but no "
                    f"software fallback is configured")
            return outcome
        if overhead:
            yield isa.Compute(overhead)
        # A quarantined network, or an episode whose cohort is already
        # completing over software, goes software directly.
        if not (self._sw_cohort.get(ident, 0) or net.quarantined):
            outcome = yield HWArrive(net, operands)
            if outcome != FAILOVER:
                return outcome
        core.stats.bump(self.sw_counter)
        joined = self._sw_cohort.get(ident, 0) + 1
        # The software episode is fully subscribed once every core has
        # joined; the next episode decides hardware-vs-software afresh.
        self._sw_cohort[ident] = 0 if joined >= net.num_cores else joined
        return (yield from self.fallback.sequence(core, fallback_arg))

    def describe(self) -> str:
        wires = self.networks[0].num_glines
        desc = (f"{self.title} ({len(self.networks)} context(s), "
                f"{wires} G-lines per context, "
                f"entry overhead {self.entry_overhead} cycles)")
        if self.fallback is not None:
            desc += f" with {self.fallback.name} watchdog failover"
        return desc


class GLBarrier(GLineLibrary, BarrierImpl):
    """Hardware G-line barrier bound to one or more network contexts
    (:class:`~repro.gline.network.GLineBarrierNetwork` or
    :class:`~repro.gline.hierarchical.HierarchicalGLineBarrier`)."""

    name = "GL"
    word = "barrier"
    title = "G-line hardware barrier"
    sw_counter = "faults.failover.sw_arrivals"

    def __init__(self, networks, config: GLineConfig | None = None,
                 fallback: BarrierImpl | None = None):
        self.config = config or GLineConfig()
        super().__init__(networks, self.config.entry_overhead, fallback)

    def sequence(self, core, barrier_id: int) -> Generator:
        # bar_reg carries no operand: a release resumes the core with
        # None, and the software barriers return None too.
        return self._episode(core, barrier_id, (), barrier_id)
