"""The G-line barrier network: wiring, clocking and the arrival interface.

Wiring for an R x C mesh (Figure 1): every row gets a TX G-line (slaves ->
master) and a release G-line (master -> slaves); the first column gets a
vertical TX/release pair.  Total wires: ``2*rows + 2`` (the paper's
``2 * (sqrt(N) + 1)`` for square meshes), degenerating gracefully for
single-row or single-column meshes.

The network is clocked **only while a barrier is in flight** (the paper
switches controllers on at bar_reg writes and off after the release, to
save power); each tick runs the controllers' assert phase, then their
sample phase, modelling the 1-cycle G-line propagation.

A tick visits only the *stages* that can change
(:mod:`repro.gline.stages`).  A stage is one row (its master, its
horizontal slaves and its ``SglineH``/``MglineH`` pair) or the first
column (the vertical master and slaves and the vertical pair).  A stage
is awake when one of its controllers ``will_act``.  The bar_reg writes,
the hand-offs between the rows and the column, the gate and the resets
mark the stages they touch, and a stage with a wire forced this cycle
(after the fault injector ran; without one, stuck when an episode began
or the network was reset) samples even when asleep.  A ``stuck`` level
written directly on a wire is seen from the next such point.

Ideal latency: with all cores arrived, the release reaches every core 4
cycles later (gather-row, gather-column, release-column, release-row) --
asserted by the test-suite for the paper's 2x2 walkthrough and verified for
arbitrary meshes and arrival orders by property tests.
"""

from __future__ import annotations

from ..common.errors import CapacityError
from ..common.params import GLineConfig
from ..common.stats import BarrierSample, StatsRegistry
from ..faults import FAILOVER
from ..obs import events as obs_ev
from ..sim.engine import Engine
from .context import SyncContext
from .controllers import BarRegFile, MasterH, MasterV, SlaveH, SlaveV
from .gline import GLine
from .recovery import RecoveryController
from .stages import StageGate


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


class ReleaseGate:
    """Decouples gather-complete from release-start (hierarchical mode).

    When installed on a network, reaching the all-arrived state reports
    upward via *on_gathered* instead of starting the release; the upper
    level later opens the gate to let the release proceed.  The report is
    idempotent per episode (``reported``) so a watchdog-retried gather
    does not double-arrive at the upper level.
    """

    def __init__(self, on_gathered):
        self.is_open = False
        self.reported = False
        self._on_gathered = on_gathered

    def on_gathered(self) -> None:
        if self.reported:
            return
        self.reported = True
        self._on_gathered()


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

        self.bar_regs = BarRegFile(self.num_cores)
        self._build()

        self.barriers_completed = 0
        #: Hardware-level latency samples (last bar_reg write -> release),
        #: kept locally; chip-level episode samples (which include the
        #: library entry overhead) live in the shared StatsRegistry via
        #: repro.sync.accounting.BarrierAccounting.
        self.samples: list[BarrierSample] = []
        self._arrived = 0
        #: Optional external completion hook (hierarchical extension).
        self.on_all_released = None
        #: Optional release gate (hierarchical extension).
        self._gate: ReleaseGate | None = None

        # ---- watchdog / fault-handling state (repro.faults) ---------- #
        #: Hardened mode: watchdog + spurious-release guard + overshoot
        #: detection.  Off by default, so a plain network schedules the
        #: exact same events it always did.
        self.hardened = self.config.watchdog_budget > 0
        #: Self-healing re-admission state machine (repro.gline.recovery);
        #: None keeps failover terminal, exactly the PR 2 semantics.
        self.recovery: RecoveryController | None = (
            RecoveryController(self) if self.config.recovery_enabled
            else None)
        self._spurious_release = False
        self._row_validated = False
        for mh in self.masters_h:
            mh.hardened = self.hardened
        if self.master_v is not None:
            self.master_v.hardened = self.hardened

    # ------------------------------------------------------------------ #
    def _build(self) -> None:
        mt = self.config.max_transmitters
        self.lines: list[GLine] = []
        self.row_tx: list[GLine | None] = []
        self.row_rel: list[GLine | None] = []
        for r in range(self.rows):
            if self.cols > 1:
                tx = GLine(f"{self.name}.SglineH{r}", mt)
                rel = GLine(f"{self.name}.MglineH{r}", mt)
                self.lines += [tx, rel]
            else:
                tx = rel = None
            self.row_tx.append(tx)
            self.row_rel.append(rel)
        if self.rows > 1:
            self.col_tx = GLine(f"{self.name}.SglineV", mt)
            self.col_rel = GLine(f"{self.name}.MglineV", mt)
            self.lines += [self.col_tx, self.col_rel]
        else:
            self.col_tx = self.col_rel = None

        self.masters_h: list[MasterH] = []
        self.slaves_h: list[SlaveH] = []
        self.slaves_v: list[SlaveV] = []
        for r in range(self.rows):
            mh = MasterH(core_id=r * self.cols, row=r, rx=self.row_tx[r],
                         tx=self.row_rel[r], num_slaves=self.cols - 1)
            self.masters_h.append(mh)
            for c in range(1, self.cols):
                self.slaves_h.append(SlaveH(core_id=r * self.cols + c,
                                            tx=self.row_tx[r],
                                            rx=self.row_rel[r]))
        if self.rows > 1:
            for r in range(1, self.rows):
                sv = SlaveV(core_id=r * self.cols, row=r, tx=self.col_tx,
                            rx=self.col_rel, master_h=self.masters_h[r])
                self.slaves_v.append(sv)
                self.masters_h[r].on_release = sv.reset
            self.master_v = MasterV(core_id=0, rx=self.col_tx,
                                    tx=self.col_rel,
                                    master_h0=self.masters_h[0],
                                    num_slaves=self.rows - 1)
            self.masters_h[0].on_release = self._reset_master_v
        else:
            self.master_v = None

        # ---- stages: every row, then the column ---------------------- #
        per_row = self.cols - 1
        #: Each row's SlaveHs.
        self._row_slaves = [self.slaves_h[r * per_row:(r + 1) * per_row]
                            for r in range(self.rows)]
        #: Each stage's master and wires.
        self._masters: list[MasterH | MasterV] = list(self.masters_h)
        self._stage_wires: list[list[GLine]] = [
            [] if tx is None else [tx, rel]
            for tx, rel in zip(self.row_tx, self.row_rel)]
        if self.master_v is not None:
            self._masters.append(self.master_v)
            self._stage_wires.append([self.col_tx, self.col_rel])
        self._stage_gate = StageGate(self._stage_wires, self._wants_tick)
        #: Masters that drove their release line on the last tick; the
        #: next tick clears ``drove_release`` even if it skips them.
        self._drove: list[MasterH | MasterV] = []
        #: Whether the last tick found a fault with no core waiting: a
        #: master's overcount stays in its registers, so the next tick
        #: samples every stage, to find it again.
        self._held_fault = False

    def _reset_master_v(self) -> None:
        self.master_v.scnt = 0
        self.master_v.mcnt = 0
        self.master_v.done = False

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
        if self.bar_regs.is_set(local):
            raise CapacityError(
                f"core {core_id} re-arrived at barrier {self.name} before "
                f"release (only one outstanding barrier per context)")
        self.bar_regs.write(local, resume)
        self._stage_gate.dirty.add(local // self.cols)
        if self._first_arrival is None:
            self._first_arrival = self.now
            self._stage_gate.see_stuck()
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
        released: list = []
        bar_regs = self.bar_regs
        masters_h = self.masters_h
        row_slaves = self._row_slaves
        gate = self._stage_gate
        dirty = gate.dirty
        col = self.rows  # the column's stage number
        for m in self._drove:
            m.drove_release = False
        visit = gate.visit()
        if self._held_fault:
            visit = list(range(len(self._masters)))
        column = bool(visit) and visit[-1] == col
        rows = visit[:-1] if column else visit

        # Assert phase: drive G-lines from start-of-cycle state.  MasterV
        # runs last so the release trigger it hands to the co-located row-0
        # MasterH is consumed in the *next* cycle, matching the one-cycle
        # hand-off of the SlaveV path (release-column then release-row,
        # Figure 2 cycles 2 and 3).
        drove: list[MasterH | MasterV] = []
        for r in rows:
            mh = masters_h[r]
            if mh.release_trigger and mh.on_release is not None:
                # The release resets the row's vertical controller.
                dirty.add(col)
            mh.assert_phase(bar_regs, released)
            if mh.drove_release:
                drove.append(mh)
        for r in rows:
            for sh in row_slaves[r]:
                sh.assert_phase(bar_regs)
        if column:
            for sv in self.slaves_v:
                sv.assert_phase()
            mv = self.master_v
            mv.assert_phase()
            if mv.drove_release:
                # It handed row 0 the release trigger.
                drove.append(mv)
                dirty.add(0)
        self._drove = drove

        # Wire faults land between the assert and sample sub-phases: the
        # drivers committed their levels, the fault corrupts what the
        # receivers will see.  A stage with a forced wire samples this
        # cycle even if none of its controllers acts.
        hooked = self.injector is not None
        if hooked:
            self.injector.perturb_glines(self.lines, now=self.now)
        visit = gate.sampled(visit, hooked)
        column = bool(visit) and visit[-1] == col
        rows = visit[:-1] if column else visit
        if self.hardened:
            self._guard_release_lines(visit)

        # Sample phase: observe lines at end of cycle, update registers.
        # MasterV samples first so the co-located MasterH flag it reads is
        # the one latched at the *end of the previous cycle* -- the
        # intra-core register hand-off costs a cycle boundary, exactly as
        # in the paper's Figure 2 (Mv sets Mcnt in cycle 1 from the flag
        # MasterH set in cycle 0).
        if column:
            self.master_v.sample_phase()
        for r in rows:
            mh = masters_h[r]
            flag = mh.flag
            mh.sample_phase(bar_regs)
            if mh.flag and not flag and mh.on_release is not None:
                # A complete row: its SlaveV, or MasterV, acts next.
                dirty.add(col)
        if column:
            for sv in self.slaves_v:
                sv.sample_phase()
                if sv.master_h.release_trigger:
                    dirty.add(sv.row)
        for r in rows:
            for sh in row_slaves[r]:
                sh.sample_phase(bar_regs, released)
        fault = self.hardened and self._fault_detected(visit)
        if not fault and self.rows == 1 and masters_h[0].flag \
                and not masters_h[0].release_trigger:
            # Degenerate single-row mesh: the horizontal master releases
            # directly (no vertical stage) -- unless gated by an upper
            # hierarchy level.  Hardened networks hold the release one
            # extra cycle (count-stability validation, mirroring MasterV).
            if self._gate is None or self._gate.is_open:
                if self.hardened and not self._row_validated:
                    self._row_validated = True
                else:
                    masters_h[0].release_trigger = True
                    dirty.add(0)
            else:
                self._gate.on_gathered()

        # Post-guard levels: what the receivers actually sampled.
        wires: list[GLine] = []
        for s in visit:
            wires += self._stage_wires[s]
        self._wire_probe(wires)
        for line in wires:
            line.end_cycle()
        dirty.update(visit)
        if self.tracer.enabled:
            self.tracer.emit(
                self.now, self.name, obs_ev.GL_FSM,
                flags=[mh.flag for mh in masters_h],
                scnt=[mh.scnt for mh in masters_h],
                vscnt=self.master_v.scnt if self.master_v else None,
                arrived=self._arrived)

        if released:
            self._complete_release(released)

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
        # Cores resume at the end of the release cycle.
        release_time = self.now + 1
        for resume in released:
            if resume is not None:
                self.engine.schedule_at(release_time, resume)
        self._arrived -= len(released)
        if self.tracer.enabled:
            self.tracer.emit(self.now, self.name, obs_ev.GL_RELEASE,
                             cores=len(released), release=release_time,
                             remaining=self._arrived)
        if self._arrived == 0:
            self.barriers_completed += 1
            self._episode_retries = 0
            self._row_validated = False
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
            if self._gate is not None:
                self._gate.is_open = False
                self._gate.reported = False
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
                self.engine.schedule_at(release_time, resume, FAILOVER)
        self._arrived -= len(released)
        self.failover(reason=reason)

    def _will_act(self) -> bool:
        """True if any controller will drive a line or change registers next
        cycle without a further bar_reg write: some stage is awake."""
        return self._stage_gate.busy()

    def _wants_tick(self, s: int) -> bool:
        """Will a controller of stage *s* drive a line or change registers
        next cycle without a further bar_reg write?"""
        if s == self.rows:  # the column
            if self.master_v.will_act():
                return True
            for sv in self.slaves_v:
                if sv.will_act():
                    return True
            return False
        bar_regs = self.bar_regs
        mh = self.masters_h[s]
        if mh.will_act(bar_regs):
            return True
        for sh in self._row_slaves[s]:
            if sh.will_act(bar_regs):
                return True
        # Single-row validation cycle pending: keep the clock running.
        return (self.hardened and self.rows == 1 and mh.flag
                and not mh.release_trigger
                and (self._gate is None or self._gate.is_open))

    # ------------------------------------------------------------------ #
    # Watchdog, retry and failover (repro.faults hardening)
    # ------------------------------------------------------------------ #
    def _guard_release_lines(self, visit: list[int]) -> None:
        """Mask release-line levels that no master drove this cycle.

        A release line has exactly one legitimate transmitter, so a level
        the master did not drive is wire damage about to release cores
        early -- permanently skewing barrier episodes.  The guard forces
        the apparent level low before the slaves sample it and flags the
        episode for the fault handler.  A stage outside *visit* neither
        drives its release line nor has it forced."""
        spurious = False
        for s in visit:
            m = self._masters[s]
            rel = m.tx
            if rel is not None and rel.sampled_on() and not m.drove_release:
                rel.glitch_force = 0
                spurious = True
        if spurious:
            self._spurious_release = True
            self.fault_stats.bump("faults.gline.spurious_releases")

    def _fault_detected(self, visit: list[int]) -> bool:
        """Collect (and clear) this cycle's fault suspicions: only the
        masters of *visit* sampled."""
        found = self._spurious_release
        self._spurious_release = False
        for s in visit:
            m = self._masters[s]
            found |= m.fault_suspected
            m.fault_suspected = False
        return found

    def _watchdog_check(self, token, episode_level: bool) -> None:
        if token != self._watchdog_token(self.barriers_completed):
            return
        if self._arrived == 0 or self.quarantined:
            return
        if not episode_level and self._gate is not None \
                and self._gate.reported and not self._gate.is_open:
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
            self._reset_fsm()
            # bar_regs are still set, so the slaves immediately re-signal;
            # a transient fault heals, a permanent one re-trips the
            # watchdog until the retry budget runs out.
            self._clock(self.config.line_latency)
            if self._arrived == self.num_cores:
                self._arm_watchdog(self.config.watchdog_budget,
                                   self.barriers_completed, False)
        else:
            self.failover()

    def _reset_fsm(self) -> None:
        """Return every controller to its gather-start state (bar_regs and
        permanent wire damage are preserved)."""
        for mh in self.masters_h:
            mh.scnt = 0
            mh.mcnt = 0
            mh.flag = False
            mh.release_trigger = False
            mh.fault_suspected = False
        for sh in self.slaves_h:
            sh.signaling = True
        for sv in self.slaves_v:
            sv.sent = False
        if self.master_v is not None:
            self._reset_master_v()
            self.master_v.validating = False
            self.master_v.fault_suspected = False
        self._row_validated = False
        self._spurious_release = False
        for line in self.lines:
            line.end_cycle()
        self._stage_gate.wake_all()

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
        self._reset_fsm()
        resumes = [self.bar_regs.clear(local)
                   for local in range(self.num_cores)
                   if self.bar_regs.is_set(local)]
        release_time = self.now + 1
        for resume in resumes:
            if resume is not None:
                self.engine.schedule_at(release_time, resume, FAILOVER)
        self._arrived = 0
        self._first_arrival = None
        self._last_arrival = None
        self._episode_retries = 0
        if self._gate is not None:
            self._gate.is_open = False
            self._gate.reported = False
        if self.recovery is not None:
            self.recovery.on_failover()

    def _waiting_core_ids(self) -> list[int]:
        """Chip-level ids of cores currently holding a set bar_reg."""
        return [self.core_ids[local] for local in range(self.num_cores)
                if self.bar_regs.is_set(local)]

    # ------------------------------------------------------------------ #
    def set_injector(self, injector) -> None:
        super().set_injector(injector)
        # Heal-mode injectors watch this network's recovery state to
        # decide whether their fault is currently active.
        if injector is not None and hasattr(injector, "net"):
            injector.net = self

    # ------------------------------------------------------------------ #
    # Hierarchical-mode gating
    # ------------------------------------------------------------------ #
    def install_gate(self, on_gathered) -> ReleaseGate:
        """Defer this network's release stage behind an external gate.

        *on_gathered* fires once per episode when all local cores have
        arrived; call :meth:`open_gate` to start the release."""
        self._gate = ReleaseGate(on_gathered)
        if self.master_v is not None:
            self.master_v.gate = self._gate
        return self._gate

    def open_gate(self) -> None:
        """Upper level grants the release; resume clocking if dormant."""
        if self._gate is None:
            return
        self._gate.is_open = True
        self._stage_gate.wake_all()
        if self.rows == 1 and self.masters_h[0].flag:
            self.masters_h[0].release_trigger = True
        if self.hardened and self._arrived == self.num_cores:
            # Fresh budget for the release pipeline: the gate-parked wait
            # (upper-level coordination) is excluded from the watchdog.
            self._arm_watchdog(self.config.watchdog_budget,
                               self.barriers_completed, False)
        if not self.active and self._will_act():
            self._clock()

    def fully_idle(self) -> bool:
        """All controllers in their initial state and no bar_reg set."""
        return (not any(self.bar_regs.values)
                and all(mh.idle for mh in self.masters_h)
                and all(sh.idle for sh in self.slaves_h)
                and all(sv.idle for sv in self.slaves_v)
                and (self.master_v is None or self.master_v.idle))
