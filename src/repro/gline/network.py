"""The G-line barrier network: wiring, clocking and the arrival interface.

Wiring for an R x C mesh (Figure 1): every row gets a TX G-line (slaves ->
master) and a release G-line (master -> slaves); the first column gets a
vertical TX/release pair.  Total wires: ``2*rows + 2`` (the paper's
``2 * (sqrt(N) + 1)`` for square meshes), degenerating gracefully for
single-row or single-column meshes.

The wires and the controllers of Figure 4 are one
:class:`~repro.collectives.fabric.CollectiveFabric` running its
zero-round barrier kind; this is its engine adapter, as
:class:`~repro.collectives.network.CollectiveNetwork` is the
collectives'.  The network is clocked **only while a barrier is in
flight** (the paper switches controllers on at bar_reg writes and off
after the release, to save power), and a tick visits only the fabric's
stages that can change.

Ideal latency: with all cores arrived, the release reaches every core 4
cycles later (gather-row, gather-column, release-column, release-row) --
asserted by the test-suite for the paper's 2x2 walkthrough and verified for
arbitrary meshes and arrival orders by property tests.
"""

from __future__ import annotations

from typing import Callable

from ..collectives import ops
from ..collectives.controllers import M_GATHER
from ..collectives.fabric import BARRIER_WIRES, CollectiveFabric
from ..common.errors import CapacityError
from ..common.params import GLineConfig
from ..common.stats import BarrierSample, StatsRegistry
from ..faults import FAILOVER
from ..obs import events as obs_ev
from ..sim.engine import Engine
from .context import SyncContext
from .recovery import RecoveryController


def count_episode(stats: StatsRegistry, metrics, first: int, last: int,
                  release: int) -> None:
    """Count one chip-level barrier episode: the ``gline.barriers``
    counter, and with metrics on, ``gline.episodes`` and the episode's
    latency (release - last arrival) and span (release - first)."""
    stats.bump("gline.barriers")
    if metrics is not None:
        metrics.histogram("gline.episode_latency").record(release - last)
        metrics.histogram("gline.episode_span").record(release - first)
        metrics.counter("gline.episodes").inc()


class GLineBarrierNetwork(SyncContext):
    """One barrier context over a dedicated G-line network."""

    what = "G-line network"
    scale_out = "repro.gline.hierarchical"

    def __init__(self, engine: Engine, stats: StatsRegistry, rows: int,
                 cols: int, config: GLineConfig | None = None,
                 name: str = "glnet",
                 core_ids: list[int] | None = None,
                 slot: int | None = None):
        super().__init__(engine, stats, rows, cols,
                         config or GLineConfig(), name, core_ids, slot)
        self.config = self.gl_config
        #: Hardened mode: watchdog + spurious-release guard + overshoot
        #: detection.  Off by default, so a plain network schedules the
        #: exact same events it always did.
        self.hardened = self.config.watchdog_budget > 0

        self.fabric = fabric = CollectiveFabric(
            rows, cols, 1, self.config.max_transmitters, name=name,
            wires=BARRIER_WIRES)
        fabric.guard = self.hardened
        fabric.wire_probe = self._wire_probe
        fabric.begin(ops.BARRIER)
        self.lines = fabric.lines
        #: Each row's gather (``SglineH``) and release (``MglineH``)
        #: wire; None on a single-column mesh.
        self.row_tx = [m.tx for m in fabric.rmasters]
        self.row_rel = [m.rel for m in fabric.rmasters]

        #: The set bar_regs: each waiting core's resume, by local id.
        self._waiting: dict[int, Callable[..., None] | None] = {}
        self.barriers_completed = 0
        #: Hardware-level latency samples (last bar_reg write -> release),
        #: kept locally; chip-level episode samples (which include the
        #: library entry overhead) live in the shared StatsRegistry via
        #: repro.sync.accounting.BarrierAccounting.
        self.samples: list[BarrierSample] = []
        self._arrived = 0
        #: Optional external completion hook (hierarchical extension).
        self.on_all_released = None
        #: Hierarchical extension (:meth:`install_gate`): the upper
        #: level's report hook, and whether this episode reported.
        self._on_gathered: Callable[[], None] | None = None
        self._reported = False

        #: Self-healing re-admission state machine (repro.gline.recovery);
        #: None keeps failover terminal, exactly the PR 2 semantics.
        self.recovery: RecoveryController | None = (
            RecoveryController(self) if self.config.recovery_enabled
            else None)
        #: Whether the last tick found a fault with no core waiting: a
        #: master's overcount stays in its registers, so the next tick
        #: samples every stage, to find it again.
        self._held_fault = False

    # ------------------------------------------------------------------ #
    # Arrival interface (called by the core / barrier library)
    # ------------------------------------------------------------------ #
    def arrive(self, core_id: int, resume, delay: int = 0) -> None:
        """Core *core_id* executes ``mov 1, bar_reg`` *delay* cycles from
        now; *resume* runs when the hardware clears bar_reg (the release
        stage)."""
        self._write(delay, self._set_barreg, core_id, resume)

    def _set_barreg(self, core_id: int, resume) -> None:
        if self._bounced(resume):
            return
        local = self._local_of[core_id]
        if local in self._waiting:
            raise CapacityError(
                f"core {core_id} re-arrived at barrier {self.name} before "
                f"release (only one outstanding barrier per context)")
        self._waiting[local] = resume
        self.fabric.arrive_local(local, 1)
        if self._first_arrival is None:
            self._first_arrival = self.now
            self.fabric.see_stuck()
            if self.hardened and self.config.watchdog_episode_budget:
                self._arm_watchdog(self.config.watchdog_episode_budget,
                                   self.barriers_completed, True)
        self._last_arrival = self.now
        self._arrived += 1
        if self.tracer.enabled:
            self.tracer.emit(self.now, self.name, obs_ev.GL_ARRIVE,
                             core=core_id, arrived=self._arrived,
                             of=self.num_cores)
        if self.flight is not None:
            self.flight.record(core_id, self.now, self.name,
                               obs_ev.GL_ARRIVE, arrived=self._arrived,
                               of=self.num_cores)
        if self.hardened and self._arrived == self.num_cores:
            # All cores present: the gather+release must finish within the
            # budget or the watchdog intervenes.
            self._arm_watchdog(self.config.watchdog_budget,
                               self.barriers_completed, False)
        # Tick for the cycle in which bar_reg became visible.
        self._wake()

    # ------------------------------------------------------------------ #
    # Clocking
    # ------------------------------------------------------------------ #
    def _tick(self) -> None:
        self.active_cycles += 1
        self._next_tick = None
        fabric = self.fabric
        released = fabric.tick(self._held_fault)
        fault = False
        if self.hardened:
            if fabric.spurious:
                self.fault_stats.bump("faults.gline.spurious_releases")
            fault = fabric.collect_fault()
        if self.tracer.enabled:
            masters = fabric.rmasters
            self.tracer.emit(
                self.now, self.name, obs_ev.GL_FSM,
                flags=[m.state != M_GATHER for m in masters],
                scnt=[m.arrived for m in masters],
                vscnt=(None if fabric.colmaster is None
                       else fabric.colmaster.arrived),
                arrived=self._arrived)

        if released:
            waiting = self._waiting
            self._complete_release([waiting.pop(local, None)
                                    for local, _ in released])

        self._held_fault = fault and self._arrived == 0
        if fault and self._arrived > 0:
            self._handle_fault()
            return

        self._clock_next(self._will_act())

    def _complete_release(self, released: list) -> None:
        if self.hardened and len(released) != self._arrived:
            # Release atomicity: a legitimate release pulse covers every
            # waiting core in one cycle, so a shortfall means a release
            # line dropped the pulse for part of the mesh (stuck or
            # forced low) while the masters -- who release their own
            # cores at drive time -- ran ahead.  Retrying cannot recall
            # the cores already released, so the only sound containment
            # is the same as a shadow mismatch: the whole episode
            # completes as one software cohort.
            self.fault_stats.bump("faults.gline.partial_releases")
            self._abort_release(released, reason="partial release")
            return
        if self.recovery is not None \
                and not self.recovery.release_ok(len(released)):
            # Probation shadow cross-check failed: withhold the hardware
            # release and complete the episode over software instead.
            self._abort_release(released, reason="probation shadow-mismatch")
            return
        if self._arrived < self.num_cores:
            # An early release neither guard withheld: the gather count
            # reached its target with a core missing (see
            # repro.gline.recovery).  The cores resume all the same.
            self.fault_stats.bump("faults.gline.early_releases")
            if self.first_early_release is None:
                self.first_early_release = (self.now, self._arrived)
            if self.tracer.enabled:
                self.tracer.emit(self.now, self.name,
                                 obs_ev.GL_EARLY_RELEASE,
                                 cores=len(released), arrived=self._arrived,
                                 of=self.num_cores)
        # Cores resume at the end of the release cycle, in one event.
        release_time = self.now + 1
        for resume in released:
            if resume is not None:
                self.schedule_batched(release_time, resume)
        self._arrived -= len(released)
        if self.tracer.enabled:
            self.tracer.emit(self.now, self.name, obs_ev.GL_RELEASE,
                             cores=len(released), release=release_time,
                             remaining=self._arrived)
        if self._arrived == 0:
            self.barriers_completed += 1
            self._episode_retries = 0
            if self.counts_episodes:
                count_episode(self.stats, self.metrics, self._first_arrival,
                              self._last_arrival, release_time)
            self.samples.append(BarrierSample(
                barrier_id=self.barriers_completed,
                first_arrival=self._first_arrival,
                last_arrival=self._last_arrival,
                release=release_time))
            if self.tracer.enabled:
                self.tracer.emit(self.now, self.name, obs_ev.GL_EPISODE,
                                 barrier=self.barriers_completed,
                                 first=self._first_arrival,
                                 last=self._last_arrival,
                                 release=release_time)
            self._first_arrival = None
            self._last_arrival = None
            self.fabric.end_barrier()
            self._reported = False
            if self.recovery is not None:
                self.recovery.on_episode_complete()
            if self.on_all_released is not None:
                self.on_all_released()

    def _abort_release(self, released: list, reason: str) -> None:
        """Bounce an untrusted release's cores to the software fallback.

        Their bar_regs were already cleared by the release path, so the
        subsequent :meth:`failover` sweep (which handles the cores still
        waiting) cannot double-bounce them -- every core of the episode
        ends up in the same software cohort exactly once."""
        release_time = self.now + 1
        for resume in released:
            if resume is not None:
                self.schedule_batched(release_time, resume, FAILOVER)
        self._arrived -= len(released)
        self.failover(reason=reason)

    def _will_act(self) -> bool:
        """True if any controller will drive a line or change registers next
        cycle without a further bar_reg write: some stage is awake."""
        return self.fabric.will_act()

    # ------------------------------------------------------------------ #
    # Watchdog, retry and failover (repro.faults hardening)
    # ------------------------------------------------------------------ #
    def _watchdog_check(self, token, episode_level: bool) -> None:
        if token != self._watchdog_token(self.barriers_completed):
            return
        if self._arrived == 0 or self.quarantined:
            return
        if not episode_level and self._reported \
                and not self.fabric.gate_open:
            # Local gather is complete, validated and reported upward;
            # the episode is parked on the upper hierarchy level, whose
            # own watchdog owns that wait (a degraded sibling segment may
            # legitimately hold the gate far longer than our budget).
            # ``open_gate`` re-arms us to cover the release pipeline.
            return
        if episode_level and self._arrived < self.num_cores:
            # Cores are genuinely missing (fail-stopped or extreme
            # stragglers) -- re-gathering cannot conjure them up, so skip
            # the retries and fail the episode over directly.
            self.detections += 1
            self.fault_stats.bump("faults.watchdog.detections")
            self.failover()
            return
        self._handle_fault()

    def _handle_fault(self) -> None:
        """A stalled or corrupt episode: retry the gather, else fail over."""
        self.detections += 1
        self.fault_stats.bump("faults.watchdog.detections")
        if self.recovery is not None and self.recovery.in_probation:
            # Zero tolerance during probation: a re-admitted network that
            # raises any suspicion re-degrades immediately (a flap), no
            # retry burn-down.
            self.failover(reason="probation watchdog")
            return
        if self._episode_retries < self.config.watchdog_retries:
            self._count_retry("faults.watchdog", self._arrived)
            if self.flight is not None:
                for cid in self._waiting_core_ids():
                    self.flight.record(cid, self.now, self.name,
                                       obs_ev.GL_WATCHDOG_RETRY,
                                       attempt=self._episode_retries)
            self.fabric.reset_episode()
            # bar_regs are still set, so the slaves immediately re-signal;
            # a transient fault heals, a permanent one re-trips the
            # watchdog until the retry budget runs out.
            self._clock(self.config.line_latency)
            if self._arrived == self.num_cores:
                self._arm_watchdog(self.config.watchdog_budget,
                                   self.barriers_completed, False)
        else:
            self.failover()

    def failover(self, reason: str = "watchdog") -> None:
        """Give up on this network: quarantine it and bounce every waiting
        core back with the FAILOVER outcome so the episode completes over
        the software fallback barrier.

        Safe by construction: every core that arrived here is re-routed
        into the *same* software episode, and cores that have not arrived
        yet find the network quarantined and go software directly -- no
        core ever skips an episode, so the cohort stays aligned.

        With a recovery controller attached the quarantine is not
        terminal: the controller schedules idle-cycle probes and may
        re-admit the network (see :mod:`repro.gline.recovery`)."""
        self._quarantine(reason, self._waiting_core_ids(), "faults.watchdog",
                         obs_ev.GL_WATCHDOG_FAILOVER, "fallback")
        self.fabric.reset_episode(keep_operands=False)
        release_time = self.now + 1
        for local in sorted(self._waiting):
            resume = self._waiting[local]
            if resume is not None:
                self.schedule_batched(release_time, resume, FAILOVER)
        self._waiting.clear()
        self._arrived = 0
        self._first_arrival = None
        self._last_arrival = None
        self._episode_retries = 0
        self._reported = False
        if self.recovery is not None:
            self.recovery.on_failover()

    def _waiting_core_ids(self) -> list[int]:
        """Chip-level ids of cores currently holding a set bar_reg."""
        return [self.core_ids[local] for local in sorted(self._waiting)]

    # ------------------------------------------------------------------ #
    # Hierarchical-mode gating
    # ------------------------------------------------------------------ #
    def install_gate(self, on_gathered: Callable[[], None]) -> None:
        """Defer this network's release stage behind an external gate.

        *on_gathered* fires once per episode when all local cores have
        arrived; call :meth:`open_gate` to start the release."""
        self._on_gathered = on_gathered
        self.fabric.hold_result = True
        self.fabric.on_reduced = self._gathered

    def _gathered(self, _value: int) -> None:
        """The fabric's gather is complete behind the gate: report it,
        once per episode, so a watchdog-retried gather does not arrive
        twice at the upper level."""
        if self._reported:
            return
        self._reported = True
        self._on_gathered()

    def open_gate(self) -> None:
        """Upper level grants the release; resume clocking if dormant."""
        if self._on_gathered is None:
            return
        self.fabric.open_gate()
        if self.hardened and self._arrived == self.num_cores:
            # Fresh budget for the release pipeline: the gate-parked wait
            # (upper-level coordination) is excluded from the watchdog.
            self._arm_watchdog(self.config.watchdog_budget,
                               self.barriers_completed, False)
        if not self.active and self._will_act():
            self._clock()

    def fully_idle(self) -> bool:
        """All controllers in their initial state and no bar_reg set."""
        fabric = self.fabric
        return (not self._waiting
                and all(m.idle for m in fabric._all_masters())
                and all(sl.idle for row in fabric.rslaves for sl in row)
                and all(sl.idle for sl in fabric.colslaves))
