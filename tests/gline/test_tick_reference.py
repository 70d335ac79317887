"""The fabric-backed barrier network against the Figure-4 controllers.

The barrier network runs on a
:class:`~repro.collectives.fabric.CollectiveFabric` as its zero-round
barrier kind.  This file keeps, as the reference it is held to, the
network it replaced: the four controllers of Figure 4 (``MasterH``,
``SlaveH``, ``SlaveV``, ``MasterV``) and :class:`ReferenceNetwork`, the
network that clocked them with a full-visit tick -- every controller's
assert and sample phase, every wire's end of cycle, ``_will_act`` asking
every controller, the release guard and the fault collection reading
every master -- with the watchdog, retry, failover, recovery and gate
hooks around it, and the early-release report the network now makes.

Hypothesis scripts drive the reference and :class:`GLineBarrierNetwork`
side by side on their own engines: meshes up to 4x4 (single-row and
single-column ones too), one to three episodes of drawn arrival
schedules, hardened or not, a release gate opened after a drawn delay
(as a hierarchy cluster's is), a fault injector with drawn glitch,
miscount, intermittent and stuck rates, levels forced on drawn wires at
drawn cycles, a wire stuck before the first arrival and healed when the
first episode ends, watchdog retries, failover and recovery
re-admission.  After every cycle the resumes (core, cycle, outcome, in
order), the ``gline.fsm`` register view, the waiting cores,
``_will_act()``, the quarantine and recovery state, the wire toggles and
stuck levels and the ``faults.*`` counters must be equal.  Two planted
mutations of the fabric's gating show the comparison can fail.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, Phase, example, given, settings
from hypothesis import strategies as st

from repro.collectives.controllers import M_DONE, M_GATHER
from repro.collectives.fabric import CollectiveFabric
from repro.common.errors import CapacityError
from repro.common.params import GLineConfig
from repro.common.stats import BarrierSample, StatsRegistry
from repro.faults import FAILOVER, FaultPlan
from repro.faults.injector import FaultInjector
from repro.gline.context import SyncContext
from repro.gline.gline import GLine
from repro.gline.network import GLineBarrierNetwork, count_episode
from repro.gline.recovery import RecoveryController
from repro.gline.stages import StageGate
from repro.obs import events as obs_ev
from repro.sim.engine import Engine


# ---------------------------------------------------------------------- #
# The Figure-4 controllers
# ---------------------------------------------------------------------- #
class BarRegFile:
    """The per-core ``bar_reg`` registers plus resume plumbing.

    Programmers write ``bar_reg`` (a value > 0) to announce arrival and spin
    until the hardware clears it (Figure 3).  In the simulator the "spin" is
    the core sleeping on a resume callback -- architecturally identical
    because a core spinning on its own register generates no external
    activity.
    """

    def __init__(self, num_cores: int):
        self.values = [0] * num_cores
        self._resume = [None] * num_cores

    def write(self, core_id: int, resume) -> None:
        self.values[core_id] = 1
        self._resume[core_id] = resume

    def is_set(self, core_id: int) -> bool:
        return self.values[core_id] != 0

    def clear(self, core_id: int):
        """Hardware reset of bar_reg; returns the resume callback."""
        self.values[core_id] = 0
        resume, self._resume[core_id] = self._resume[core_id], None
        return resume


class SlaveH:
    """Horizontal slave: signals its core's arrival on the row TX line."""

    def __init__(self, core_id: int, tx: GLine, rx: GLine):
        self.core_id = core_id
        self.tx = tx      # SglineH: slave -> master
        self.rx = rx      # MglineH: master -> slave (release)
        self.tx.attach(f"ShT{core_id}")
        self.signaling = True   # True: Signaling state; False: Waiting

    def assert_phase(self, bar_regs: BarRegFile) -> None:
        if self.signaling and bar_regs.is_set(self.core_id):
            self.tx.assert_signal(f"ShT{self.core_id}")
            self.signaling = False

    def sample_phase(self, bar_regs: BarRegFile, released: list) -> None:
        if not self.signaling and self.rx.sampled_on():
            # Release stage: hardware clears bar_reg; core resumes.
            self.signaling = True
            released.append(bar_regs.clear(self.core_id))

    @property
    def idle(self) -> bool:
        return self.signaling

    def will_act(self, bar_regs: BarRegFile) -> bool:
        """True if this controller will drive a line next cycle."""
        return self.signaling and bar_regs.is_set(self.core_id)


class MasterH:
    """Horizontal master: counts its row's arrivals, relays the release."""

    def __init__(self, core_id: int, row: int, rx: GLine | None,
                 tx: GLine | None, num_slaves: int):
        self.core_id = core_id
        self.row = row
        self.rx = rx      # SglineH: receives slave signals (None if C == 1)
        self.tx = tx      # MglineH: drives the release (None if C == 1)
        self.num_slaves = num_slaves
        if tx is not None:
            tx.attach(f"MhT{core_id}")
        self.scnt = 0
        self.mcnt = 0
        self.flag = False
        #: Set by the vertical controller hand-off (or by own flag when the
        #: mesh has a single row): release the row next cycle.
        self.release_trigger = False
        #: Hook installed by the network wiring: called when this master
        #: performs its release, so co-located vertical state can reset.
        self.on_release = None
        #: Hardened mode (repro.faults): keep sampling after ``flag`` so a
        #: faulty wire that keeps counting is caught as an overshoot.
        self.hardened = False
        self.fault_suspected = False
        #: True iff this master drove its release line this cycle -- lets
        #: the network's guard spot a release-line level nobody drove.
        self.drove_release = False

    def assert_phase(self, bar_regs: BarRegFile, released: list) -> None:
        self.drove_release = False
        if self.release_trigger:
            if self.tx is not None:
                self.tx.assert_signal(f"MhT{self.core_id}")
                self.drove_release = True
            # Reset all registers (release stage, Figure 4 left-pointing
            # transitions) and clear the local core's bar_reg.
            self.scnt = 0
            self.mcnt = 0
            self.flag = False
            self.release_trigger = False
            released.append(bar_regs.clear(self.core_id))
            if self.on_release is not None:
                self.on_release()

    def sample_phase(self, bar_regs: BarRegFile) -> None:
        if self.flag:
            if self.hardened and self.rx is not None:
                # Keep the S-CSMA sense alive after row completion: in a
                # fault-free episode no slave signals again before the
                # release, so any extra count means a lying wire.
                self.scnt += self.rx.sample_count()
                if self.scnt > self.num_slaves:
                    self.fault_suspected = True
            return
        if self.rx is not None:
            self.scnt += self.rx.sample_count()
        if bar_regs.is_set(self.core_id):
            self.mcnt = 1
        if self.hardened and self.scnt > self.num_slaves:
            self.fault_suspected = True
            return
        if self.mcnt == 1 and self.scnt == self.num_slaves:
            self.flag = True

    @property
    def idle(self) -> bool:
        return (self.scnt == 0 and self.mcnt == 0 and not self.flag
                and not self.release_trigger)

    def will_act(self, bar_regs: BarRegFile) -> bool:
        """True if registers can change or a line will be driven next cycle
        without any further external event (bar_reg write)."""
        if self.release_trigger:
            return True
        return self.mcnt == 0 and bar_regs.is_set(self.core_id)


class SlaveV:
    """Vertical slave (column 0, rows >= 1): reports row completion."""

    def __init__(self, core_id: int, row: int, tx: GLine, rx: GLine,
                 master_h: MasterH):
        self.core_id = core_id
        self.row = row
        self.tx = tx      # SglineV: slave -> vertical master
        self.rx = rx      # MglineV: vertical master -> slave (release)
        self.master_h = master_h
        self.tx.attach(f"SvT{core_id}")
        self.sent = False

    def assert_phase(self) -> None:
        if not self.sent and self.master_h.flag:
            self.tx.assert_signal(f"SvT{self.core_id}")
            self.sent = True

    def sample_phase(self) -> None:
        if self.sent and self.rx.sampled_on():
            # Hand the release to the co-located horizontal master, which
            # will drive its row's release line next cycle.
            self.master_h.release_trigger = True

    def reset(self) -> None:
        self.sent = False

    @property
    def idle(self) -> bool:
        return not self.sent

    def will_act(self) -> bool:
        return not self.sent and self.master_h.flag


class MasterV:
    """Vertical master (core (0,0)): counts rows, initiates the release."""

    def __init__(self, core_id: int, rx: GLine, tx: GLine,
                 master_h0: MasterH, num_slaves: int):
        self.core_id = core_id
        self.rx = rx      # SglineV
        self.tx = tx      # MglineV
        self.master_h0 = master_h0
        self.num_slaves = num_slaves
        self.tx.attach(f"MvT{core_id}")
        self.scnt = 0
        self.mcnt = 0
        self.done = False
        #: Hierarchical extension hook: when set, reaching ``done`` reports
        #: upward instead of starting the release; the release begins when
        #: ``gate_open`` is switched on by the upper level.
        self.gate = None
        #: Hardened mode (repro.faults): one extra count-stability cycle
        #: before committing to the chip-wide release, plus overshoot
        #: detection -- a stuck-at-1 SglineV keeps counting and is caught
        #: during validation instead of releasing the chip early.
        self.hardened = False
        self.fault_suspected = False
        self.validating = False
        self.drove_release = False

    def _gate_allows_release(self) -> bool:
        return self.gate is None or self.gate.is_open

    def assert_phase(self) -> None:
        self.drove_release = False
        if self.done and self._gate_allows_release():
            # Release stage start (cycle 2 of the ideal timeline): drive the
            # vertical release line and hand the trigger to the co-located
            # row-0 horizontal master; reset own counters.
            self.tx.assert_signal(f"MvT{self.core_id}")
            self.drove_release = True
            self.master_h0.release_trigger = True
            self.scnt = 0
            self.mcnt = 0
            self.done = False

    def sample_phase(self) -> None:
        self.scnt += self.rx.sample_count()
        if self.master_h0.flag:
            self.mcnt = 1
        if self.hardened and self.scnt > self.num_slaves:
            self.fault_suspected = True
            self.validating = False
            return
        if not self.done and self.mcnt == 1 and self.scnt == self.num_slaves:
            if self.hardened and not self.validating:
                self.validating = True
                return
            self.validating = False
            self.done = True
            if self.gate is not None:
                self.gate.on_gathered()

    @property
    def idle(self) -> bool:
        return self.scnt == 0 and self.mcnt == 0 and not self.done

    def will_act(self) -> bool:
        if self.done:
            return self._gate_allows_release()
        if self.validating:
            return True
        return self.mcnt == 0 and self.master_h0.flag


class ReleaseGate:
    """Decouples gather-complete from release-start (hierarchical mode):
    reaching the all-arrived state reports upward, once per episode."""

    def __init__(self, on_gathered):
        self.is_open = False
        self.reported = False
        self._on_gathered = on_gathered

    def on_gathered(self):
        if self.reported:
            return
        self.reported = True
        self._on_gathered()


# ---------------------------------------------------------------------- #
# The network that clocked them, with its full-visit tick
# ---------------------------------------------------------------------- #
class ReferenceNetwork(SyncContext):
    """One barrier context over the Figure-4 controllers."""

    what = "G-line network"
    scale_out = "repro.gline.hierarchical"

    def __init__(self, engine, stats, rows, cols, config=None,
                 name="glnet", core_ids=None, slot=None):
        super().__init__(engine, stats, rows, cols,
                         config or GLineConfig(), name, core_ids, slot)
        self.config = self.gl_config
        self.bar_regs = BarRegFile(self.num_cores)
        self._build()
        self.barriers_completed = 0
        self.samples = []
        self._arrived = 0
        self.on_all_released = None
        self._gate = None
        self.hardened = self.config.watchdog_budget > 0
        self.recovery = (RecoveryController(self)
                         if self.config.recovery_enabled else None)
        self._spurious_release = False
        self._row_validated = False
        for mh in self.masters_h:
            mh.hardened = self.hardened
        if self.master_v is not None:
            self.master_v.hardened = self.hardened

    def _build(self):
        mt = self.config.max_transmitters
        self.lines = []
        self.row_tx = []
        self.row_rel = []
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
        self.masters_h = []
        self.slaves_h = []
        self.slaves_v = []
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

    def _reset_master_v(self):
        self.master_v.scnt = 0
        self.master_v.mcnt = 0
        self.master_v.done = False

    # Arrival interface ------------------------------------------------ #
    def arrive(self, core_id, resume, delay=0):
        self._write(delay, self._set_barreg, core_id, resume)

    def _set_barreg(self, core_id, resume):
        if self._bounced(resume):
            return
        local = self._local_of[core_id]
        if self.bar_regs.is_set(local):
            raise CapacityError(
                f"core {core_id} re-arrived at barrier {self.name} before "
                f"release (only one outstanding barrier per context)")
        self.bar_regs.write(local, resume)
        if self._first_arrival is None:
            self._first_arrival = self.now
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
            self._arm_watchdog(self.config.watchdog_budget,
                               self.barriers_completed, False)
        self._wake()

    # The full-visit clock --------------------------------------------- #
    def _tick(self):
        self.active_cycles += 1
        self._next_tick = None
        released = []
        for mh in self.masters_h:
            mh.assert_phase(self.bar_regs, released)
        for sh in self.slaves_h:
            sh.assert_phase(self.bar_regs)
        for sv in self.slaves_v:
            sv.assert_phase()
        if self.master_v is not None:
            self.master_v.assert_phase()
        if self.injector is not None:
            self.injector.perturb_glines(self.lines, now=self.now)
        if self.hardened:
            self._guard_release_lines()
        if self.master_v is not None:
            self.master_v.sample_phase()
        for mh in self.masters_h:
            mh.sample_phase(self.bar_regs)
        for sv in self.slaves_v:
            sv.sample_phase()
        for sh in self.slaves_h:
            sh.sample_phase(self.bar_regs, released)
        fault = self.hardened and self._fault_detected()
        if not fault and self.rows == 1 and self.masters_h[0].flag \
                and not self.masters_h[0].release_trigger:
            if self._gate is None or self._gate.is_open:
                if self.hardened and not self._row_validated:
                    self._row_validated = True
                else:
                    self.masters_h[0].release_trigger = True
            else:
                self._gate.on_gathered()
        self._wire_probe(self.lines)
        for line in self.lines:
            line.end_cycle()
        if self.tracer.enabled:
            self.tracer.emit(
                self.now, self.name, obs_ev.GL_FSM,
                flags=[mh.flag for mh in self.masters_h],
                scnt=[mh.scnt for mh in self.masters_h],
                vscnt=self.master_v.scnt if self.master_v else None,
                arrived=self._arrived)
        if released:
            self._complete_release(released)
        if fault and self._arrived > 0:
            self._handle_fault()
            return
        self._clock_next(self._will_act())

    def _complete_release(self, released):
        if self.hardened and len(released) != self._arrived:
            self.fault_stats.bump("faults.gline.partial_releases")
            self._abort_release(released, reason="partial release")
            return
        if self.recovery is not None \
                and not self.recovery.release_ok(len(released)):
            self._abort_release(released, reason="probation shadow-mismatch")
            return
        if self._arrived < self.num_cores:
            # The early-release report of the fabric-backed network.
            self.fault_stats.bump("faults.gline.early_releases")
            if self.first_early_release is None:
                self.first_early_release = (self.now, self._arrived)
            if self.tracer.enabled:
                self.tracer.emit(self.now, self.name,
                                 obs_ev.GL_EARLY_RELEASE,
                                 cores=len(released), arrived=self._arrived,
                                 of=self.num_cores)
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

    def _abort_release(self, released, reason):
        release_time = self.now + 1
        for resume in released:
            if resume is not None:
                self.engine.schedule_at(release_time, resume, FAILOVER)
        self._arrived -= len(released)
        self.failover(reason=reason)

    def _will_act(self):
        bar_regs = self.bar_regs
        for mh in self.masters_h:
            if mh.will_act(bar_regs):
                return True
        for sh in self.slaves_h:
            if sh.will_act(bar_regs):
                return True
        for sv in self.slaves_v:
            if sv.will_act():
                return True
        if self.master_v is not None and self.master_v.will_act():
            return True
        return (self.hardened and self.rows == 1 and self.masters_h[0].flag
                and not self.masters_h[0].release_trigger
                and (self._gate is None or self._gate.is_open))

    # Watchdog, retry and failover ------------------------------------- #
    def _guard_release_lines(self):
        spurious = False
        for r, rel in enumerate(self.row_rel):
            if rel is not None and rel.sampled_on() \
                    and not self.masters_h[r].drove_release:
                rel.glitch_force = 0
                spurious = True
        if self.col_rel is not None and self.col_rel.sampled_on() \
                and not (self.master_v is not None
                         and self.master_v.drove_release):
            self.col_rel.glitch_force = 0
            spurious = True
        if spurious:
            self._spurious_release = True
            self.fault_stats.bump("faults.gline.spurious_releases")

    def _fault_detected(self):
        found = self._spurious_release
        self._spurious_release = False
        for mh in self.masters_h:
            found |= mh.fault_suspected
            mh.fault_suspected = False
        if self.master_v is not None:
            found |= self.master_v.fault_suspected
            self.master_v.fault_suspected = False
        return found

    def _watchdog_check(self, token, episode_level):
        if token != self._watchdog_token(self.barriers_completed):
            return
        if self._arrived == 0 or self.quarantined:
            return
        if not episode_level and self._gate is not None \
                and self._gate.reported and not self._gate.is_open:
            return
        if episode_level and self._arrived < self.num_cores:
            self.detections += 1
            self.fault_stats.bump("faults.watchdog.detections")
            self.failover()
            return
        self._handle_fault()

    def _handle_fault(self):
        self.detections += 1
        self.fault_stats.bump("faults.watchdog.detections")
        if self.recovery is not None and self.recovery.in_probation:
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
            self._clock(self.config.line_latency)
            if self._arrived == self.num_cores:
                self._arm_watchdog(self.config.watchdog_budget,
                                   self.barriers_completed, False)
        else:
            self.failover()

    def _reset_fsm(self):
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

    def failover(self, reason="watchdog"):
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

    def _waiting_core_ids(self):
        return [self.core_ids[local] for local in range(self.num_cores)
                if self.bar_regs.is_set(local)]

    def set_injector(self, injector):
        self.injector = injector
        if injector is not None and hasattr(injector, "net"):
            injector.net = self

    # Hierarchical-mode gating ----------------------------------------- #
    def install_gate(self, on_gathered):
        self._gate = ReleaseGate(on_gathered)
        if self.master_v is not None:
            self.master_v.gate = self._gate

    def open_gate(self):
        if self._gate is None:
            return
        self._gate.is_open = True
        if self.rows == 1 and self.masters_h[0].flag:
            self.masters_h[0].release_trigger = True
        if self.hardened and self._arrived == self.num_cores:
            self._arm_watchdog(self.config.watchdog_budget,
                               self.barriers_completed, False)
        if not self.active and self._will_act():
            self._clock()

    def fully_idle(self):
        return (not any(self.bar_regs.values)
                and all(mh.idle for mh in self.masters_h)
                and all(sh.idle for sh in self.slaves_h)
                and all(sv.idle for sv in self.slaves_v)
                and (self.master_v is None or self.master_v.idle))

    def fsm_view(self):
        """The ``gline.fsm`` trace fields."""
        return ([mh.flag for mh in self.masters_h],
                [mh.scnt for mh in self.masters_h],
                self.master_v.scnt if self.master_v else None,
                self._arrived)


def fsm_view(net):
    """The ``gline.fsm`` trace fields of *net*: row flags, row and column
    counts, cores waiting."""
    if isinstance(net, ReferenceNetwork):
        return net.fsm_view()
    fabric = net.fabric
    return ([m.state != M_GATHER for m in fabric.rmasters],
            [m.arrived for m in fabric.rmasters],
            None if fabric.colmaster is None else fabric.colmaster.arrived,
            net._arrived)


# ---------------------------------------------------------------------- #
# Planted mutations of the fabric's gating
# ---------------------------------------------------------------------- #
class UnwokenReleaseRowFabric(CollectiveFabric):
    """The column's release reaching a row wakes row 0, not that row."""

    def _barrier_handoffs(self, visit, out):
        flagged = [r for r, m in enumerate(self.rmasters) if m.state == M_DONE]
        super()._barrier_handoffs(visit, out)
        dirty = self._stage_gate.dirty
        for r in flagged:
            if r and r not in visit and self.rmasters[r].state != M_DONE:
                dirty.discard(r)
                dirty.add(0)


class UnwokenReleaseRowNetwork(GLineBarrierNetwork):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.fabric.__class__ = UnwokenReleaseRowFabric


class SleepingForcedWireGate(StageGate):
    """Ignores a wire forced on a sleeping stage."""

    __slots__ = ()

    def forced(self, hooked):
        return super().forced(hooked) & self.awake


class SleepingForcedWireNetwork(GLineBarrierNetwork):
    """A wire forced on a sleeping stage is ignored."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.fabric._stage_gate.__class__ = SleepingForcedWireGate


# ---------------------------------------------------------------------- #
# Scripts
# ---------------------------------------------------------------------- #
_rate = st.sampled_from([0.0, 0.0, 0.01, 0.03, 0.08])

_script = st.fixed_dictionaries({
    "rows": st.integers(1, 4),
    "cols": st.integers(1, 4),
    # Per episode, each core's compute before it arrives (the first
    # from cycle 0, the others from its resume).
    "delays": st.lists(st.lists(st.integers(0, 12), min_size=16,
                                max_size=16), min_size=1, max_size=3),
    "budget": st.sampled_from([0, 0, 8, 16, 40]),
    "retries": st.integers(0, 2),
    "episode_budget": st.sampled_from([0, 0, 60]),
    "recovery": st.booleans(),
    "probation": st.integers(1, 2),
    "flaps": st.integers(1, 3),
    "gate": st.one_of(st.none(), st.integers(0, 6)),
    "faults": st.one_of(st.none(), st.fixed_dictionaries({
        "seed": st.integers(0, 1000),
        "gline_glitch_rate": _rate,
        "scsma_miscount_rate": _rate,
        "gline_intermittent_rate": st.sampled_from([0.0, 0.0, 0.01]),
        "gline_stuck_rate": st.sampled_from([0.0, 0.0, 0.005]),
    })),
    # Levels forced on a wire for one cycle: (cycle, wire index, level).
    "forced": st.one_of(st.just([]), st.lists(st.tuples(
        st.integers(0, 40), st.integers(0, 9), st.integers(0, 1)),
        max_size=4)),
    # A wire stuck before the first arrival: (wire index, level).
    "stuck": st.one_of(st.none(), st.tuples(st.integers(0, 9),
                                            st.integers(0, 1))),
})

#: Cycles a script runs at most; every episode ends well before.
HORIZON = 400


class Injector:
    """The seeded fault injector, if any, then the script's forced
    levels."""

    def __init__(self, seeded, forced):
        self.seeded = seeded
        self.forced = forced

    def perturb_glines(self, lines, now=None):
        if self.seeded is not None:
            self.seeded.perturb_glines(lines, now=now)
        for cycle, index, level in self.forced:
            if cycle == now:
                lines[index % len(lines)].glitch_force = level


class Side:
    """One network under a script, with the cores that drive it."""

    def __init__(self, cls, script):
        rows, cols = script["rows"], script["cols"]
        budget = script["budget"]
        recovery = script["recovery"] and budget > 0
        cfg = GLineConfig(
            watchdog_budget=budget, watchdog_retries=script["retries"],
            watchdog_episode_budget=script["episode_budget"] if budget
            else 0,
            recovery_enabled=recovery, recovery_probe_interval=6,
            recovery_backoff_factor=1, recovery_max_backoff=6,
            recovery_max_probes=3,
            recovery_probation_barriers=script["probation"],
            recovery_max_flaps=script["flaps"])
        self.engine = Engine()
        self.stats = StatsRegistry(rows * cols)
        self.net = net = cls(self.engine, self.stats, rows, cols, cfg)
        seeded = None
        if script["faults"] is not None:
            seeded = FaultInjector(
                FaultPlan(gline_intermittent_min_cycles=2,
                          gline_intermittent_max_cycles=8,
                          **script["faults"]), self.stats)
        if (seeded is not None or script["forced"]) and net.lines:
            net.set_injector(Injector(seeded, script["forced"]))
        if script["gate"] is not None:
            delay = script["gate"]
            net.install_gate(
                lambda: self.engine.schedule(delay, net.open_gate))
        #: The wire stuck before the first arrival, healed at the first
        #: resume: once the first episode is over for some core.
        self.stuck = None
        if script["stuck"] is not None and net.lines:
            index, level = script["stuck"]
            self.stuck = net.lines[index % len(net.lines)]
            self.stuck.stuck = level
        self.delays = script["delays"]
        self.resumes = []
        for core in range(net.num_cores):
            self.engine.schedule_at(self.delays[0][core], self._arrive,
                                    core, 0)

    def _arrive(self, core, episode):
        def resume(outcome=None):
            self.resumes.append((core, self.engine.now,
                                 outcome is FAILOVER))
            if self.stuck is not None:
                self.stuck.stuck = None
                self.stuck = None
            if episode + 1 < len(self.delays):
                self.engine.schedule(self.delays[episode + 1][core],
                                     self._arrive, core, episode + 1)
        self.net.arrive(core, resume)

    def run_to(self, cycle):
        try:
            self.engine.run(until=cycle)
        except Exception as exc:
            return type(exc).__name__, str(exc)
        return None

    def observe(self):
        net = self.net
        rec = net.recovery
        return (
            list(self.resumes), fsm_view(net), net._waiting_core_ids(),
            net._will_act(), net.fully_idle(), net.active,
            net.active_cycles, net.quarantined, net.barriers_completed,
            net.first_early_release,
            None if rec is None else (rec.state, rec.flaps, rec.probes),
            self.stats.gline_toggles,
            {k: v for k, v in self.stats.counters.items()
             if k.startswith("faults.")},
            [(gl.toggles, gl.stuck) for gl in net.lines],
        )


def compare(cls, script):
    """Drive *cls* and the reference with *script*; assert they agree
    after every cycle."""
    ref = Side(ReferenceNetwork, script)
    got = Side(cls, script)
    for cycle in range(HORIZON):
        want = ref.run_to(cycle)
        have = got.run_to(cycle)
        assert have == want, cycle
        assert got.observe() == ref.observe(), cycle
        if want is not None or not (ref.engine.pending()
                                    or got.engine.pending()):
            return


def _script_of(**over):
    base = dict(rows=2, cols=2, delays=[[0] * 16], budget=0, retries=0,
                episode_budget=0, recovery=False, probation=1, flaps=1,
                gate=None, faults=None, forced=[], stuck=None)
    return {**base, **over}


#: Row 1's gather wire is stuck high before the first arrival and only
#: row 0 arrives before it: the sleeping row's master must still count
#: the wire.
STUCK_BEFORE_FIRST = _script_of(delays=[[0, 0, 9, 9] + [0] * 12],
                                stuck=(2, 1))
#: A hardened single-row network behind a gate: the validation cycle
#: and the single-row release hand-off.
GATED_ROW = _script_of(rows=1, cols=4, delays=[[3, 0, 5, 1] + [0] * 12,
                                                [1] * 16],
                       budget=16, gate=3)
#: Hardened 2x2, row 1 late.  A high vertical gather wire lets row 0
#: release alone, and two highs on row 1's gather wire overcount it in
#: the release cycle, when no core waits.  Core 0 arrives next: the tick
#: must find the overcount then, though row 1 sleeps.
IDLE_OVERCOUNT = _script_of(delays=[[0, 0, 40, 40] + [0] * 12,
                                    [24, 34] + [0] * 14],
                            budget=40, retries=2,
                            forced=[(1, 2, 1), (2, 4, 1), (5, 2, 1)])


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(script=_script)
@example(script=STUCK_BEFORE_FIRST)
@example(script=GATED_ROW)
@example(script=IDLE_OVERCOUNT)
def test_gated_tick_matches_full_visit_tick(script):
    compare(GLineBarrierNetwork, script)


def _catches(cls):
    """True if some script tells *cls* apart from the reference."""
    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None, phases=[Phase.generate],
              suppress_health_check=[HealthCheck.too_slow])
    @given(script=_script)
    def run(script):
        compare(cls, script)

    try:
        run()
    except AssertionError:
        return True
    return False


@pytest.mark.parametrize("mutant", [UnwokenReleaseRowNetwork,
                                    SleepingForcedWireNetwork])
def test_planted_gating_mutations_are_caught(mutant):
    assert _catches(mutant)
