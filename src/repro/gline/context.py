"""The engine side every G-line sync context shares.

:class:`SyncContext` is the base of the barrier network
(:mod:`repro.gline.network`) and of the collective network
(:mod:`repro.collectives.network`).  Each wraps one
:class:`~repro.collectives.fabric.CollectiveFabric` -- the barrier runs
its zero-round kind -- and this holds once what both do alike around
it: the register write and its slot alignment, the power-gated clock,
the watchdog token, the quarantine and its bounded report log, the wire
probe, the fault injector's hook and the sinks.  Each network keeps its
own tick, fault handling, report strings and stat names.
:class:`Hierarchy` is the cluster grid and per-level fan-out of the two
hierarchical wrappers.  :func:`build_sync_contexts` alone decides a
context's shape -- flat or hierarchical, replicated per context or
time-multiplexed on one network's wires -- for both kinds.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import replace
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from ..common.errors import CapacityError, ConfigError
from ..common.params import GLineConfig
from ..common.stats import StatsRegistry
from ..faults import FAILOVER
from ..obs import events as obs_ev
from ..obs.observability import Observability
from ..sim.component import Component
from ..sim.engine import Engine
from .gline import GLine

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..collectives.fabric import CollectiveFabric

#: Event priority for network ticks: same-cycle register writes (normal
#: priority 0) become visible to the tick that samples that cycle.
TICK_PRIORITY = 10

#: Cap on retained failover post-mortems.  A flapping line under the
#: recovery controller can fail over an unbounded number of times on a
#: long run; like the ring tracer, the reports keep the most recent
#: window and count what they drop.
FAILOVER_REPORT_CAP = 64


def partition(dim: int, max_dim: int) -> list[tuple[int, int]]:
    """Split *dim* into contiguous chunks of at most *max_dim*.

    Returns (start, length) pairs, as evenly sized as possible.
    """
    if dim < 1:
        raise ConfigError("dimension must be >= 1")
    nchunks = math.ceil(dim / max_dim)
    base, extra = divmod(dim, nchunks)
    out: list[tuple[int, int]] = []
    start = 0
    for i in range(nchunks):
        length = base + (1 if i < extra else 0)
        out.append((start, length))
        start += length
    return out


def submesh_core_ids(mesh_cols: int, row0: int, col0: int, rows: int,
                     cols: int) -> list[int]:
    """Chip-level core ids, row-major, of the *rows* x *cols* sub-mesh
    with top-left corner (*row0*, *col0*) of a mesh *mesh_cols* wide:
    the ``core_ids`` of a flat network over that sub-mesh."""
    if rows < 1 or cols < 1:
        raise ConfigError("sub-mesh must be at least 1x1")
    if row0 < 0 or col0 < 0:
        raise ConfigError("sub-mesh origin must be non-negative")
    if col0 + cols > mesh_cols:
        # Unchecked, the ids of the overflowing columns wrap onto the
        # next mesh row: a context that "works" but synchronizes the
        # wrong cores.
        raise ConfigError(
            f"sub-mesh columns {col0}..{col0 + cols - 1} overflow a "
            f"{mesh_cols}-column mesh (core ids would wrap to the next "
            f"row)")
    return [(row0 + r) * mesh_cols + (col0 + c)
            for r in range(rows) for c in range(cols)]


class SyncContext(Component):
    """One G-line barrier or collective context, as the engine sees it.

    Only :func:`build_sync_contexts` sets *slot*: the context's
    ``line_latency`` is then the slot period, and every register write
    lands in its slot.  Without a slot nothing is aligned.
    """

    #: Named by the error for a mesh beyond one network's S-CSMA limit:
    #: what this context is, and what to use instead.
    what: str
    scale_out: str
    #: Each network's own fabric, wires, clock tick and watchdog expiry.
    fabric: CollectiveFabric
    lines: list[GLine]
    _tick: Callable[[], None]
    _watchdog_check: Callable[..., None]

    def __init__(self, engine: Engine, stats: StatsRegistry, rows: int,
                 cols: int, gl_config: GLineConfig, name: str,
                 core_ids: list[int] | None = None,
                 slot: int | None = None):
        super().__init__(engine, stats, name)
        self.gl_config = gl_config
        max_dim = gl_config.max_transmitters + 1
        if rows > max_dim or cols > max_dim:
            raise CapacityError(
                f"a single {self.what} supports at most "
                f"{max_dim}x{max_dim} cores (S-CSMA limit of "
                f"{gl_config.max_transmitters} transmitters per line); "
                f"use {self.scale_out} for {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        #: Chip-level core ids in row-major mesh order (defaults to 0..N-1;
        #: hierarchical and sub-mesh contexts pass their own).
        self.core_ids = core_ids or list(range(rows * cols))
        if len(self.core_ids) != rows * cols:
            raise CapacityError("core_ids must cover the full mesh")
        self.num_cores = rows * cols
        self._local_of = {cid: i for i, cid in enumerate(self.core_ids)}
        self.slot = slot
        #: Whether the clock runs: a tick is scheduled.
        self.active = False
        #: Engine handle of that tick.  A context runs one tick chain:
        #: each network's ``_tick`` clears this when it runs.
        self._next_tick: int | None = None
        self.active_cycles = 0
        #: Whether a completed episode counts as a chip-level one (a
        #: hierarchy clears it on levels whose episodes it counts).
        self.counts_episodes = True
        #: When the open episode's first and last register writes landed.
        self._first_arrival: int | None = None
        self._last_arrival: int | None = None
        #: The first release that beat an arrival: (cycle, cores
        #: arrived).  Only the barrier network detects one.
        self.first_early_release: tuple[int, int] | None = None

        # ---- fault state (repro.faults) ------------------------------ #
        #: Set by CMP when a FaultPlan is enabled; perturbs the wires once
        #: per clocked cycle.
        self.injector: Any = None
        #: True once the watchdog gave up on this context; arrivals are
        #: then bounced straight back with the FAILOVER outcome so the
        #: library completes them in software.
        self.quarantined = False
        self.detections = 0
        self.retries = 0
        self.failovers = 0
        self._episode_retries = 0
        #: Barrier flight recorder (set via :meth:`set_obs`).
        self.flight: Any = None
        #: Human-readable failover post-mortems (flight tail included when
        #: the recorder is active); surfaced by resilience reports/tests.
        #: Bounded: keeps the most recent window, counts drops.
        self.failover_reports: deque[str] = deque(maxlen=FAILOVER_REPORT_CAP)
        self.failover_reports_dropped = 0

    @property
    def num_glines(self) -> int:
        """Physical wire count of this context's network."""
        return len(self.lines)

    # ------------------------------------------------------------------ #
    # Register writes and the power-gated clock
    # ------------------------------------------------------------------ #
    def _write(self, delay: int, land: Callable[..., None],
               *args: Any) -> None:
        """Schedule a register write the core issues *delay* cycles from
        now: *land* runs when it becomes visible, ``barreg_write_cycles``
        later and, on a time-multiplexed context, in its next slot.
        Writes that land in one cycle back to back share one event."""
        delay += self.gl_config.barreg_write_cycles
        if self.slot is not None:
            delay += (self.slot - self.now - delay) \
                % self.gl_config.line_latency
        self.schedule_batched(self.now + delay, land, *args)

    def _bounced(self, resume: Callable[..., None] | None) -> bool:
        """True if the watchdog retired this context; *resume* then gets
        FAILOVER at once and the core completes the episode in software."""
        if not self.quarantined:
            return False
        if resume is not None:
            self.schedule_batched(self.now, resume, FAILOVER)
        return True

    def _clock(self, delay: int = 0) -> None:
        """Run the clock: the fabric ticks *delay* cycles from now.  A
        tick already scheduled is dropped, so that a retry taken while
        the clock runs restarts the one tick chain instead of adding a
        second."""
        self._stop_clock()
        self.active = True
        self._next_tick = self.engine.schedule(delay, self._tick,
                                               priority=TICK_PRIORITY)

    def _stop_clock(self) -> None:
        """Gate the clock and cancel the scheduled tick, if any."""
        if self._next_tick is not None:
            self.engine.cancel(self._next_tick)
            self._next_tick = None
        self.active = False

    def _wake(self) -> None:
        """A register write landed: tick now if the clock was gated."""
        if not self.active:
            self._clock()

    def _clock_next(self, busy: bool) -> None:
        """End of a tick: tick again if the fabric is *busy*, else gate."""
        if busy:
            self._next_tick = self.engine.schedule(
                self.gl_config.line_latency, self._tick,
                priority=TICK_PRIORITY)
        else:
            # Dormant: controller state is held, but nothing can change
            # until another register write reactivates the clock.
            # This both models the paper's controller power-gating and
            # keeps long straggler waits event-free.
            self.active = False

    # ------------------------------------------------------------------ #
    # Watchdog, quarantine, wire probe and sinks
    # ------------------------------------------------------------------ #
    def _watchdog_token(self, completed: int) -> tuple[int, int, int]:
        """Pins a watchdog timer to one attempt: *completed* episodes,
        failovers and this episode's retries.  Completion, a retry or a
        failover each change it, so stale timers expire silently."""
        return (completed, self.failovers, self._episode_retries)

    def _arm_watchdog(self, budget: int, completed: int,
                      *args: Any) -> None:
        """Check on the current attempt *budget* cycles from now."""
        self.schedule(budget, self._watchdog_check,
                      self._watchdog_token(completed), *args)

    def _quarantine(self, reason: str, waiting: list[int], faults: str,
                    kind: str, fallback: str, **detail: Any) -> bool:
        """Retire this context: stop its clock (a failover taken outside
        the context's own tick, by the watchdog or a hierarchy, would
        otherwise leave a tick scheduled on the closed episode), count
        the failover in the *faults* family of stats, trace it as *kind*
        (with *detail*) and in each *waiting* core's flight log, and keep
        the post-mortem, with the recorder's tail when it is on, in the
        bounded failover log.  True if the log was full and dropped its
        oldest report."""
        self.quarantined = True
        self._stop_clock()
        self.failovers += 1
        self.fault_stats.bump(f"{faults}.failovers")
        if self.tracer.enabled:
            self.tracer.emit(self.now, self.name, kind,
                             waiting=list(waiting), retries=self.retries,
                             **detail)
        if self.flight is not None:
            for cid in waiting:
                self.flight.record(cid, self.now, self.name, kind,
                                   retries=self.retries)
        report = (f"{self.name}: {reason} FAILOVER at cycle {self.now} "
                  f"after {self._episode_retries} retries; waiting cores "
                  f"{waiting} bounced to software {fallback}")
        if self.flight is not None:
            # Recorder tail only when observability is on -- the base
            # message format stays stable for disabled runs.
            tail = self.flight.format_tail(waiting)
            if tail:
                report += "\n" + tail
        dropped = len(self.failover_reports) == self.failover_reports.maxlen
        if dropped:
            self.failover_reports_dropped += 1
            self.fault_stats.bump(f"{faults}.reports_dropped")
        self.failover_reports.append(report)
        return dropped

    def _count_retry(self, faults: str, arrived: int) -> None:
        """Count a retry of the open episode in the *faults* family of
        stats and trace it."""
        self._episode_retries += 1
        self.retries += 1
        self.fault_stats.bump(f"{faults}.retries")
        if self.tracer.enabled:
            self.tracer.emit(self.now, self.name, obs_ev.GL_WATCHDOG_RETRY,
                             attempt=self._episode_retries, arrived=arrived)

    def _wire_probe(self, lines: list[GLine]) -> None:
        """Count the toggles of *lines*, the wires that can carry a level
        this cycle, and, when tracing, emit the level and count the
        receivers of every wire of the context sampled."""
        if self.tracer.enabled:
            for line in self.lines:
                self.tracer.emit(self.now, line.name, obs_ev.GL_WIRE,
                                 level=int(line.sampled_on()),
                                 count=line.sample_count())
        stats = self.stats
        for line in lines:
            stats.gline_toggles += len(line._asserting)

    @property
    def fault_stats(self) -> StatsRegistry:
        """Where ``faults.*`` counters go: the chip registry, as for
        every level of a hierarchy."""
        return self.stats

    def set_injector(self, injector: Any) -> None:
        """Let *injector* perturb the wires of every tick (None: no
        faults)."""
        self.injector = injector
        self.fabric.perturb_hook = (self._perturb if injector is not None
                                    else None)

    def _perturb(self, lines: list[GLine]) -> None:
        self.injector.perturb_glines(lines, now=self.now)

    def set_stats(self, stats: StatsRegistry) -> None:
        """Re-point the measurement sink (chip ``reset_stats`` hook)."""
        self.stats = stats

    def set_obs(self, obs: Observability) -> None:
        """Attach an :class:`~repro.obs.Observability` bundle."""
        self.tracer = obs.tracer
        self.metrics = obs.metrics
        self.flight = obs.flight


class Hierarchy(Component):
    """A two-level context: a grid of clusters of at most
    ``max_transmitters + 1`` cores a side, each with its own network,
    under a top network with one participant per cluster.  This owns the
    grid and fans the chip's calls out to every level; episodes, segment
    cohorts and failover are each wrapper's own."""

    #: A hierarchy is never time-multiplexed (see :func:`total_wires`).
    slot: int | None = None
    clusters: Sequence[SyncContext]
    top: SyncContext

    def __init__(self, engine: Engine, stats: StatsRegistry, rows: int,
                 cols: int, gl_config: GLineConfig, name: str):
        super().__init__(engine, stats, name)
        self.gl_config = gl_config
        self.rows = rows
        self.cols = cols
        self.num_cores = rows * cols
        max_dim = gl_config.max_transmitters + 1
        row_chunks = partition(rows, max_dim)
        col_chunks = partition(cols, max_dim)
        self.cluster_rows = len(row_chunks)
        self.cluster_cols = len(col_chunks)
        if self.cluster_rows > max_dim or self.cluster_cols > max_dim:
            raise CapacityError(
                f"{rows}x{cols} needs more than {max_dim}x{max_dim} "
                f"clusters; a deeper hierarchy is not implemented")
        #: Per cluster, in row-major grid order: its network's name, its
        #: shape, and its chip-level core ids in row-major order.
        self.grid = [
            (f"{name}.c{ri}_{ci}", rlen, clen,
             submesh_core_ids(cols, r0, c0, rlen, clen))
            for ri, (r0, rlen) in enumerate(row_chunks)
            for ci, (c0, clen) in enumerate(col_chunks)]
        #: Chip-level core id -> index of its cluster in the grid.
        self.cluster_of = {cid: k for k, (_, _, _, ids)
                           in enumerate(self.grid) for cid in ids}
        #: Per cluster, in grid order: the cycles of one leg, gather or
        #: scatter, of the software cohort its cores form once its
        #: network is retired (segment failover): a library-call entry
        #: plus a NoC walk across the cluster's diameter.
        self.segment_latency = [
            gl_config.entry_overhead + 2 * (rlen + clen)
            for _, rlen in row_chunks for _, clen in col_chunks]

    @property
    def levels(self) -> list[SyncContext]:
        """Every network of the hierarchy: the clusters, then the top."""
        return [*self.clusters, self.top]

    @property
    def num_glines(self) -> int:
        """Total wires: all cluster networks + the inter-cluster level."""
        return sum(net.num_glines for net in self.levels)

    @property
    def detections(self) -> int:
        return sum(net.detections for net in self.levels)

    @property
    def retries(self) -> int:
        return sum(net.retries for net in self.levels)

    @property
    def failover_reports(self) -> list[str]:
        return [r for net in self.levels for r in net.failover_reports]

    @property
    def failover_reports_dropped(self) -> int:
        return sum(net.failover_reports_dropped for net in self.levels)

    def set_injector(self, injector: Any) -> None:
        for net in self.levels:
            net.set_injector(injector)

    def set_stats(self, stats: StatsRegistry) -> None:
        """Chip ``reset_stats`` hook: every level moves to *stats*."""
        self.stats = stats
        for net in self.levels:
            net.set_stats(stats)

    def set_obs(self, obs: Observability) -> None:
        """Attach observability to every level of the hierarchy."""
        self.tracer = obs.tracer
        self.metrics = obs.metrics
        for net in self.levels:
            net.set_obs(obs)


def build_sync_contexts(flat: Callable[..., Any],
                        hierarchical: Callable[..., Any], engine: Engine,
                        stats: StatsRegistry, rows: int, cols: int,
                        gl_config: GLineConfig, *, name: str,
                        count: int = 1, slots: int = 1,
                        **kwargs: Any) -> list[Any]:
    """Build a chip's contexts of one kind, whose *flat* and
    *hierarchical* network classes are each called with *kwargs*.

    With *slots* > 1, that many *flat* contexts share one network's
    wires by time slot: each runs at ``line_latency * slots``, slot *s*
    at offset ``s * line_latency``, and they are named ``{name}.s{s}``.
    Every stage hand-off then waits a slot period: a barrier takes
    ``3 * slots + 1`` cycles plus up to ``slots - 1`` of alignment.
    Otherwise *count* replicas, named *name* alone or ``{name}{k}``,
    each *flat* when the mesh fits the S-CSMA fan-in and *hierarchical*
    beyond it."""
    max_dim = gl_config.max_transmitters + 1
    fits = rows <= max_dim and cols <= max_dim
    if slots > 1:
        if not fits:
            raise CapacityError(
                f"time multiplexing shares one network's wires, which "
                f"serve at most {max_dim}x{max_dim} cores; {rows}x{cols} "
                f"needs the hierarchical variant, with one slot")
        period = replace(gl_config,
                         line_latency=gl_config.line_latency * slots)
        return [flat(engine, stats, rows, cols, period, name=f"{name}.s{s}",
                     slot=s * gl_config.line_latency, **kwargs)
                for s in range(slots)]
    build = flat if fits else hierarchical
    return [build(engine, stats, rows, cols, gl_config,
                  name=f"{name}{k}" if count > 1 else name, **kwargs)
            for k in range(count)]


def total_wires(contexts: Iterable[SyncContext | Hierarchy]) -> int:
    """Physical wires of a chip's sync contexts: replicated contexts each
    own theirs; the slots of one time-multiplexed network share its
    wires, counted once, at slot offset 0."""
    return sum(ctx.num_glines for ctx in contexts if not ctx.slot)
