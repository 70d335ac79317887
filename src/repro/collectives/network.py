"""Engine-backed collective network: one operation context on a chip.

Wraps one :class:`~repro.collectives.fabric.CollectiveFabric` in the
engine adapter the barrier network also uses
(:class:`~repro.gline.context.SyncContext`): arrivals go through a
modelled ``col_reg`` write latency, the fabric is clocked at
``line_latency`` only while an episode is in flight (power gating), the
fault injector perturbs the wires between the assert and sample
sub-phases, and a hardened network (``CollectiveConfig.watchdog_budget``
> 0) guards its release lines, watches episode progress and -- after
bounded retries -- quarantines itself, bouncing every waiting core back
with the ``FAILOVER`` outcome so the library completes the operation
over the software NoC all-reduce.

``hold_result=True`` builds a *cluster* network for the hierarchical
variant: the locally reduced partial is reported through ``on_reduced``
instead of broadcast, and :meth:`open_result` later injects the
chip-global value.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from ..common.errors import CapacityError, GLineError
from ..common.params import GLineConfig
from ..common.stats import StatsRegistry
from ..faults import FAILOVER
from ..gline.context import FAILOVER_REPORT_CAP, SyncContext
from ..gline.integrity import full_jitter
from ..obs import events as obs_ev
from ..sim.engine import Engine
from .config import CollectiveConfig
from .fabric import CollectiveFabric


class CollectiveNetwork(SyncContext):
    """One collective operation context over a dedicated G-line fabric."""

    what = "collective network"
    scale_out = "repro.collectives.hierarchical"

    def __init__(self, engine: Engine, stats: StatsRegistry, rows: int,
                 cols: int, gl_config: GLineConfig | None = None,
                 coll_config: CollectiveConfig | None = None,
                 name: str = "collnet",
                 core_ids: list[int] | None = None,
                 hold_result: bool = False,
                 mutation: str | None = None,
                 slot: int | None = None):
        super().__init__(engine, stats, rows, cols,
                         gl_config or GLineConfig(), name, core_ids, slot)
        self.coll_config = coll_config or CollectiveConfig()

        self.fabric = CollectiveFabric(
            rows, cols, self.coll_config.value_width,
            self.gl_config.max_transmitters, name=name,
            hold_result=hold_result, mutation=mutation,
            integrity=self.coll_config.integrity,
            integrity_budget=self.coll_config.integrity_retry_budget)
        self.lines = self.fabric.lines
        self._int_on = self.coll_config.integrity != "off"
        self.hardened = self.coll_config.watchdog_budget > 0
        self.fabric.guard = self.hardened
        self.fabric.wire_probe = self._wire_probe
        if hold_result:
            self.fabric.on_reduced = self._on_partial

        self.collectives_completed = 0
        #: Per-episode bookkeeping.
        self._resumes: dict[int, Callable | None] = {}
        #: Locals already delivered in the open episode (deliveries
        #: stagger: row 0 finishes its broadcast before the column
        #: result has reached the other rows).
        self._delivered_locals: set[int] = set()
        #: Next-episode arrivals from already-delivered cores, drained
        #: when the open episode closes.
        self._pending: list[tuple[int, str, int, Callable | None]] = []
        self._kind: str | None = None
        #: Per-episode broadcast-width override (hierarchical clusters
        #: frame the chip-global width, not their own).
        self.bcast_width_fn: Callable[[str], int | None] | None = None
        #: Hierarchical hooks: partial ready / network gave up.
        self.on_reduced: Callable[[int], None] | None = None
        self.on_failover: Callable[[], None] | None = None

        # ---- integrity ladder bookkeeping (bounded like failover_reports) #
        self.int_detections = 0
        self.int_round_retries = 0
        self.int_corrections = 0
        self.int_op_retries = 0
        self.int_failovers = 0
        self.integrity_log: deque[str] = deque(maxlen=FAILOVER_REPORT_CAP)
        self.integrity_log_dropped = 0
        #: Snapshot of the episode shape at the moment of the last
        #: failover (read by the hierarchical segment machinery, which
        #: must not split an episode that already delivered results).
        self.last_partial_delivery = False
        self.last_parked = False
        #: Cluster-retry state: a watchdog or integrity retry restarts
        #: the whole wire protocol, and on a ``hold_result`` network the
        #: re-run reduction parks *again* -- these track whether the
        #: partial already went upstream (never re-report it) and
        #: whether the upper level already handed the global result back
        #: (redo only the local broadcast leg).
        self._partial_reported = False
        self._open_value: int | None = None
        #: The open episode's completed result, latched at the first
        #: delivery (all deliveries of an episode broadcast one value).
        #: A failover taken after partial delivery hands this to the
        #: still-waiting cores instead of FAILOVER: the software cohort
        #: can never form once some cores already committed a hardware
        #: result (the one-cohort guarantee), and the value is known.
        self._episode_value: int | None = None

    # ------------------------------------------------------------------ #
    # Arrival interface (called by the core / collective library)
    # ------------------------------------------------------------------ #
    def arrive(self, core_id: int, kind: str, value: int,
               resume: Callable[..., None] | None,
               delay: int = 0) -> None:
        """Core *core_id* writes (kind, value) to its col_reg *delay*
        cycles from now; *resume* runs with the collective's result (or
        ``FAILOVER``)."""
        self._write(delay, self._set_colreg, core_id, kind, value, resume)

    def _set_colreg(self, core_id: int, kind: str, value: int,
                    resume) -> None:
        if self._bounced(resume):
            return
        local = self._local_of[core_id]
        if local in self._resumes:
            raise CapacityError(
                f"core {core_id} re-arrived at collective {self.name} "
                f"before completion (one outstanding op per context)")
        if self._kind is not None and local in self._delivered_locals:
            # This core finished the open episode early (its row's
            # broadcast completed first) and is starting the next one.
            self._pending.append((core_id, kind, value, resume))
            return
        if self._kind is None:
            self._kind = kind
            bw = None
            if self.bcast_width_fn is not None:
                bw = self.bcast_width_fn(kind)
            self.fabric.begin(kind, bcast_width=bw)
            if self.tracer.enabled:
                self.tracer.emit(self.now, self.name, obs_ev.GL_REDUCE_START,
                                 op=kind,
                                 width=self.coll_config.value_width)
        elif kind != self._kind:
            raise GLineError(
                f"collective {self.name}: core {core_id} arrived with "
                f"kind {kind!r} during an open {self._kind!r} episode")
        self.fabric.arrive_local(local, value)
        self._resumes[local] = resume
        if self._first_arrival is None:
            self._first_arrival = self.now
        self._last_arrival = self.now
        arrived = len(self._resumes)
        if self.tracer.enabled:
            self.tracer.emit(self.now, self.name, obs_ev.GL_REDUCE_ARRIVE,
                             core=core_id, op=kind, value=value,
                             arrived=arrived, of=self.num_cores)
        if self.flight is not None:
            self.flight.record(core_id, self.now, self.name,
                               obs_ev.GL_REDUCE_ARRIVE, op=kind,
                               arrived=arrived, of=self.num_cores)
        # Deliveries can precede the last arrival (a faulted bcast gather
        # can release early arrivals first), so count delivered locals
        # toward episode-complete: once every core has either arrived or
        # been released, completion is bounded and the watchdog arms.
        if self.hardened and arrived + len(self._delivered_locals) \
                == self.num_cores:
            self._arm_watchdog(self.coll_config.watchdog_budget,
                               self.collectives_completed)
        self._wake()

    # ------------------------------------------------------------------ #
    # Clocking
    # ------------------------------------------------------------------ #
    def _tick(self) -> None:
        self.active_cycles += 1
        self._next_tick = None
        deliveries = self.fabric.tick()
        if self.tracer.enabled:
            self.tracer.emit(self.now, self.name, obs_ev.GL_REDUCE_ROUND,
                             op=self._kind, tick=self.active_cycles)

        # Integrity escalation runs before delivery processing so an
        # exhausted (suspect) result can never reach a core.
        if self._int_on and self._integrity_scan():
            return

        if deliveries:
            self._complete(deliveries)

        fault = self.hardened and self.fabric.collect_fault()
        if fault and self._resumes:
            self._handle_fault()
            return

        # Integrity-hardened contexts free-run while an episode is open:
        # the verification logic is clocked even between arrivals, which
        # also keeps model-checker replays cycle-aligned.
        self._clock_next(self.fabric.will_act()
                         or (self._int_on and self._kind is not None))

    def _complete(self, deliveries: list[tuple[int, int]]) -> None:
        release_time = self.now + 1
        if self._episode_value is None and deliveries:
            self._episode_value = deliveries[0][1]
        for local, value in deliveries:
            self._delivered_locals.add(local)
            resume = self._resumes.pop(local, None)
            if resume is not None:
                self.schedule_batched(release_time, resume, value)
            if self.tracer.enabled:
                self.tracer.emit(self.now, self.name,
                                 obs_ev.GL_REDUCE_RESULT,
                                 core=self.core_ids[local], value=value,
                                 op=self._kind)
            if self.flight is not None:
                self.flight.record(self.core_ids[local], self.now,
                                   self.name, obs_ev.GL_REDUCE_RESULT,
                                   value=value, op=self._kind)
        if not self._resumes and self.fabric.done:
            self._finish_episode(release_time)

    def _finish_episode(self, release_time: int) -> None:
        self.collectives_completed += 1
        self._episode_retries = 0
        if self.counts_episodes:
            self.stats.bump("collectives.completed")
            if self.metrics is not None:
                self.metrics.counter("collectives.episodes").inc()
                if self._last_arrival is not None:
                    self.metrics.histogram(
                        "collectives.episode_latency").record(
                            release_time - self._last_arrival)
                if self._first_arrival is not None:
                    self.metrics.histogram(
                        "collectives.episode_span").record(
                            release_time - self._first_arrival)
        self._kind = None
        self._first_arrival = None
        self._last_arrival = None
        self._delivered_locals.clear()
        self._partial_reported = False
        self._open_value = None
        self._episode_value = None
        self.fabric.close_episode()
        if self._pending:
            pending, self._pending = self._pending, []
            for core_id, kind, value, resume in pending:
                self._set_colreg(core_id, kind, value, resume)

    # ------------------------------------------------------------------ #
    # Hierarchical cluster hooks
    # ------------------------------------------------------------------ #
    def _on_partial(self, result: int) -> None:
        """The held fabric parked its local partial; report upward
        exactly once per episode.

        A watchdog or integrity retry restarts the wire protocol with
        the operands still latched, so the reduction re-runs and parks
        again.  If the upper level already resumed us with the global
        result (the retry hit mid-broadcast), the re-parked partial is
        stale *and* already consumed: redo the local broadcast leg
        instead.  If it was reported but not yet resumed, stay parked --
        the upper level holds the partial and will call
        :meth:`open_result` when its own episode completes."""
        if self._open_value is not None:
            self.fabric.open_with(self._open_value)
            return
        if self._partial_reported:
            return
        self._partial_reported = True
        if self.on_reduced is not None:
            self.on_reduced(result)

    def open_result(self, value: int) -> None:
        """Hierarchical hand-off: broadcast the chip-global *value*
        locally and resume the cluster root directly (the upper level
        computed its result)."""
        self._open_value = value
        self._episode_value = value
        root_resume = self._resumes.pop(0, None)
        self._delivered_locals.add(0)
        if root_resume is not None:
            self.schedule_batched(self.now + 1, root_resume, value)
        if self.tracer.enabled:
            self.tracer.emit(self.now, self.name, obs_ev.GL_REDUCE_RESULT,
                             core=self.core_ids[0], value=value,
                             op=self._kind)
        self.fabric.open_with(value)
        if self.hardened:
            self._arm_watchdog(self.coll_config.watchdog_budget,
                               self.collectives_completed)
        if not self.active and self.fabric.will_act():
            self._clock()

    def abort_episode(self) -> None:
        """Upper level failed over: this cluster's episode completes in
        software too (one cohort, like the barrier's segment abort)."""
        if self._resumes or self._kind is not None:
            self.failover(reason="upper-level failover")

    @property
    def parked(self) -> bool:
        """Holding a reduced partial, waiting for the upper level."""
        return (self.fabric.hold_result and self.fabric._global_ready
                and not self.fabric._bc_started)

    # ------------------------------------------------------------------ #
    # Watchdog, retry and failover
    # ------------------------------------------------------------------ #
    def _watchdog_check(self, token) -> None:
        if token != self._watchdog_token(self.collectives_completed):
            return
        if not self._resumes or self.quarantined:
            return
        if self.parked:
            # The wait belongs to the upper hierarchy level;
            # ``open_result`` re-arms us for the broadcast leg.
            return
        self._handle_fault()

    def _handle_fault(self) -> None:
        self.detections += 1
        self.fault_stats.bump("faults.collective.detections")
        if self._episode_retries < self.coll_config.watchdog_retries:
            self._count_retry("faults.collective", len(self._resumes))
            # Operands are still latched in the col_regs: restart the
            # wire protocol; transients heal, permanent damage re-trips.
            self.fabric.reset_episode(keep_operands=True)
            self._clock(self.gl_config.line_latency)
            # Re-arm while ANY core is still waiting: a retry taken
            # mid-broadcast (partial deliveries done) must stay guarded
            # or a re-wedged episode starves the remaining cores.
            if self.hardened and self._resumes:
                self._arm_watchdog(self.coll_config.watchdog_budget,
                                   self.collectives_completed)
        else:
            self.failover()

    # ------------------------------------------------------------------ #
    # Integrity recovery ladder (round retries live in the controllers;
    # this is the whole-operation rung and the hand-off to failover).
    # ------------------------------------------------------------------ #
    def _integrity_scan(self) -> bool:
        """Collect this tick's integrity activity; True if the episode
        escalated (the caller's tick must stop)."""
        d_det, d_retry, d_corr, exhausted = self.fabric.collect_integrity()
        if d_det:
            self.int_detections += d_det
            self.fault_stats.bump("faults.integrity.detections", d_det)
            if self.metrics is not None:
                self.metrics.counter(
                    "collectives.integrity.detections").inc(d_det)
            if self.tracer.enabled:
                # corrected rides along so trace audits can tell
                # self-healing detections (vote) from ones that need a
                # retry/escalation to follow.
                self.tracer.emit(self.now, self.name,
                                 obs_ev.GL_INTEGRITY_FAIL,
                                 op=self._kind, count=d_det,
                                 corrected=d_corr)
            self._log_integrity(
                f"{self.name}: {d_det} corrupted round(s) detected at "
                f"cycle {self.now} ({self._kind})")
        if d_retry:
            self.int_round_retries += d_retry
            self.fault_stats.bump("faults.integrity.round_retries", d_retry)
            if self.tracer.enabled:
                self.tracer.emit(self.now, self.name,
                                 obs_ev.GL_INTEGRITY_RETRY,
                                 op=self._kind, count=d_retry)
        if d_corr:
            self.int_corrections += d_corr
            self.fault_stats.bump("faults.integrity.corrections", d_corr)
        if exhausted and (self._resumes or self._pending):
            self._integrity_escalate()
            return True
        return False

    def _integrity_escalate(self) -> None:
        """Round retries are spent: retry the whole operation (with
        deterministic full-jitter backoff), then fail the episode over."""
        self.fault_stats.bump("faults.integrity.exhausted")
        if self._episode_retries < self.coll_config.watchdog_retries:
            self._episode_retries += 1
            self.retries += 1
            self.int_op_retries += 1
            self.fault_stats.bump("faults.integrity.op_retries")
            delay = self.gl_config.line_latency + full_jitter(
                self.name, self.collectives_completed,
                self._episode_retries)
            if self.tracer.enabled:
                self.tracer.emit(self.now, self.name,
                                 obs_ev.GL_INTEGRITY_ESCALATE,
                                 attempt=self._episode_retries,
                                 delay=delay, op=self._kind)
            self._log_integrity(
                f"{self.name}: integrity budget exhausted at cycle "
                f"{self.now}; whole-op retry {self._episode_retries} "
                f"after {delay} cycle backoff")
            self.fabric.reset_episode(keep_operands=True)
            self._clock(delay)
            if self.hardened and self._resumes:
                self._arm_watchdog(self.coll_config.watchdog_budget,
                                   self.collectives_completed)
        else:
            self.int_failovers += 1
            self.fault_stats.bump("faults.integrity.failovers")
            if self.tracer.enabled:
                self.tracer.emit(self.now, self.name,
                                 obs_ev.GL_INTEGRITY_FAILOVER,
                                 retries=self._episode_retries,
                                 op=self._kind)
            self._log_integrity(
                f"{self.name}: integrity failover at cycle {self.now} "
                f"after {self._episode_retries} whole-op retries")
            self.failover(reason="integrity")

    def _log_integrity(self, message: str) -> None:
        if len(self.integrity_log) == self.integrity_log.maxlen:
            self.integrity_log_dropped += 1
            self.fault_stats.bump("faults.integrity.log_dropped")
            if self.metrics is not None:
                self.metrics.counter(
                    "collectives.integrity.log_dropped").inc()
        self.integrity_log.append(message)

    def failover(self, reason: str = "watchdog") -> None:
        """Quarantine this context and bounce every waiting core with the
        FAILOVER outcome; the library completes the operation over the
        software NoC all-reduce (same-cohort guarantee as the barrier)."""
        self.last_partial_delivery = bool(self._delivered_locals)
        self.last_parked = self.parked
        waiting = [self.core_ids[local] for local in sorted(self._resumes)]
        if self._quarantine(reason, waiting, "faults.collective",
                            obs_ev.GL_REDUCE_FAILOVER, "all-reduce",
                            op=self._kind) and self.metrics is not None:
            self.metrics.counter(
                "collectives.failover.reports_dropped").inc()
        release_time = self.now + 1
        # Cores already committed a hardware result for this episode?
        # Then its final value exists (deliveries broadcast one value)
        # and the software cohort can never reach full strength: finish
        # the stragglers with that value.  FAILOVER only when the whole
        # episode moves to software together.
        outcome = self._episode_value \
            if self._delivered_locals and self._episode_value is not None \
            else FAILOVER
        for local in sorted(self._resumes):
            resume = self._resumes[local]
            if resume is not None:
                self.schedule_batched(release_time, resume, outcome)
        # Next-episode arrivals always bounce: nothing of *their* episode
        # ran in hardware, and the quarantined network routes the rest of
        # their cohort to software on arrival.
        for _core_id, _kind, _value, resume in self._pending:
            if resume is not None:
                self.schedule_batched(release_time, resume, FAILOVER)
        self._pending.clear()
        self._resumes.clear()
        self._delivered_locals.clear()
        self._kind = None
        self._first_arrival = None
        self._last_arrival = None
        self._episode_retries = 0
        self._partial_reported = False
        self._open_value = None
        self._episode_value = None
        self.fabric.close_episode()
        if self.on_failover is not None:
            self.on_failover()

    # ------------------------------------------------------------------ #
    def fully_idle(self) -> bool:
        return not self._resumes and self.fabric.idle
