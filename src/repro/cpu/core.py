"""In-order core model.

A core drives a stack of generator *frames*.  The bottom frame is the
workload's thread program; barrier and lock operations push library
sub-frames (the software barrier/lock algorithms, expressed as op
generators themselves) tagged with an attribution phase, so every cycle of
every operation lands in the right Figure-6 bucket:

* operations inside a barrier frame  -> ``BARRIER`` (the paper's S1+S2+S3),
* operations inside a lock frame     -> ``LOCK``,
* otherwise by operation type: Compute -> ``BUSY``, Load/SpinUntil ->
  ``READ``, Store/Atomic -> ``WRITE``.

The core is blocking (one outstanding operation), matching the simple
in-order model of the paper's Table 1.
"""

from __future__ import annotations

from typing import Callable, Generator

from ..common.errors import SimulationError
from ..common.params import CoreConfig
from ..common.stats import CycleCat, StatsRegistry
from ..faults import FAILOVER
from ..mem.l1 import L1Cache
from ..obs import events as obs_ev
from ..sim.component import Component
from ..sim.engine import Engine
from . import isa


class Core(Component):
    """One in-order core executing a thread program."""

    def __init__(self, engine: Engine, stats: StatsRegistry, cid: int,
                 l1: L1Cache, config: CoreConfig):
        super().__init__(engine, stats, f"core{cid}")
        self.cid = cid
        self.l1 = l1
        self.config = config
        #: (generator, phase or None, episode or None) frames; innermost
        #: last.  A barrier frame's episode is the ``(barrier_id,
        #: episode index)`` it departs from when it pops.
        self._frames: list[tuple[Generator, CycleCat | None,
                                 tuple[int, int] | None]] = []
        self._phase_stack: list[CycleCat] = []
        self.finished = False
        self.start_time = 0
        self.finish_time: int | None = None
        self.on_finish: Callable[["Core"], None] | None = None
        #: Bound by the chip: maps BarrierOp to an implementation.
        self.barrier_binding = None
        #: Bound by the chip: maps CollectiveOp to an implementation
        #: (repro.collectives; None unless collectives are enabled).
        self.collective_binding = None
        #: Bound by the chip: lock algorithm factory.
        self.lock_binding = None
        #: Bound by the chip: episode accounting (may stay None in
        #: unit-test rigs that drive a bare core).
        self.barrier_accounting = None
        #: Scratch space for synchronization libraries (e.g. sense flags).
        self.local: dict = {}
        self.ops_executed = 0
        #: Bound by the chip when a FaultPlan is enabled (repro.faults).
        self.injector = None
        #: The operation currently blocking this core (DeadlockError
        #: diagnostics); None when between operations or finished.
        self.pending_op = None
        #: True once a fail-stop fault halted this core for good.
        self.halted = False
        #: Barrier flight recorder (set by the chip when observability is
        #: enabled; tracer/metrics come from Component).
        self.flight = None
        #: Issue cycle of the load, store, atomic or hardware arrival in
        #: flight (the core is blocking, so there is at most one).
        self._issued = 0

    # ------------------------------------------------------------------ #
    def start(self, program) -> None:
        """Begin executing *program* (a generator, or any iterable of
        operations) at the current cycle."""
        if self._frames:
            raise SimulationError(f"core {self.cid} already running")
        self._frames.append((_as_generator(program), None, None))
        self.start_time = self.now
        self.schedule(0, self._advance, None)

    @property
    def running(self) -> bool:
        return bool(self._frames) and not self.finished

    def _push_frame(self, gen: Generator, phase: CycleCat | None,
                    episode: tuple[int, int] | None = None) -> None:
        self._frames.append((gen, phase, episode))
        if phase is not None:
            self._phase_stack.append(phase)

    def _current_cat(self, default: CycleCat) -> CycleCat:
        return self._phase_stack[-1] if self._phase_stack else default

    def _attr(self, t0: int, default: CycleCat) -> None:
        """Charge the cycles since *t0* to the innermost phase, or to
        *default* outside every phase."""
        cycles = self.engine._now - t0
        if cycles:
            stack = self._phase_stack
            self.stats.cycles[self.cid][stack[-1] if stack
                                        else default] += cycles

    # ------------------------------------------------------------------ #
    def _advance(self, value) -> None:
        """Resume the innermost frame with *value* and execute its next
        op; a barrier or collective frame pushed without a straggler
        delay runs on in the same call."""
        while self._frames:
            gen, phase, episode = self._frames[-1]
            try:
                op = gen.send(value)
            except StopIteration as stop:
                self._frames.pop()
                if phase is not None:
                    self._phase_stack.pop()
                if episode is not None:
                    self.barrier_accounting.depart(
                        self.cid, episode[0], episode[1], self.engine._now)
                value = stop.value
                continue
            if not self._execute(op):
                return
            value = None
        self.finished = True
        self.finish_time = self.now
        self.pending_op = None
        if self.on_finish is not None:
            self.on_finish(self)

    # ------------------------------------------------------------------ #
    def _execute(self, op) -> bool | None:
        """Dispatch one operation by exact type (dict lookup; the
        per-op hot path), falling back to an isinstance walk for op
        subclasses so test doubles keep working.  True when the handler
        pushed a frame for ``_advance`` to run on at once."""
        self.ops_executed += 1
        self.pending_op = op
        handler = _DISPATCH.get(type(op))
        if handler is None:
            for klass, candidate in _DISPATCH.items():
                if isinstance(op, klass):
                    handler = candidate
                    break
            else:
                raise SimulationError(
                    f"core {self.cid}: unknown op {op!r}")
        return handler(self, op, self.engine._now)

    def _exec_compute(self, op: isa.Compute, t0: int) -> None:
        if op.cycles < 0:
            raise SimulationError("negative compute duration")
        self.stats.add_cycles(self.cid,
                              self._current_cat(CycleCat.BUSY),
                              op.cycles)
        self.engine.schedule(op.cycles, self._advance, None)

    # Loads, stores and atomics: the core is blocking, so it keeps the
    # issue cycle of the one in flight, and the L1 completes it through
    # a bound method.
    def _exec_load(self, op: isa.Load, t0: int) -> None:
        self._issued = t0
        self.l1.load(op.addr, self._load_done)

    def _exec_store(self, op: isa.Store, t0: int) -> None:
        self._issued = t0
        self.l1.store(op.addr, op.value, self._store_done)

    def _exec_atomic(self, op: isa.AtomicRMW, t0: int) -> None:
        self._issued = t0
        self.l1.atomic(op.addr, op.fn, self._atomic_done)

    def _load_done(self, value: int) -> None:
        self._attr(self._issued, CycleCat.READ)
        self._advance(value)

    def _store_done(self) -> None:
        self._attr(self._issued, CycleCat.WRITE)
        self._advance(None)

    def _atomic_done(self, old: int) -> None:
        self._attr(self._issued, CycleCat.WRITE)
        self._advance(old)

    def _exec_barrier(self, op: isa.BarrierOp, t0: int) -> bool:
        if self.barrier_binding is None:
            raise SimulationError(
                f"core {self.cid}: no barrier implementation bound")
        if self.tracer.enabled or self.flight is not None:
            self._note_barrier(obs_ev.CORE_BARRIER_ENTER,
                               barrier=op.barrier_id)
        delay = 0
        if self.injector is not None:
            delay = self._entry_faults(barrier=op.barrier_id)
            if delay is None:
                return False
        seq = self.barrier_binding.sequence(self, op.barrier_id)
        episode = None
        if self.barrier_accounting is not None:
            # Episode accounting (Figure 5 / Table 2, uniform across
            # hardware and software barriers): the core arrives when the
            # frame first runs and departs when it pops.
            episode = (op.barrier_id, self.barrier_accounting.arrive(
                self.cid, op.barrier_id, t0 + delay))
        return self._enter_sync(seq, episode, delay)

    def _exec_collective(self, op: isa.CollectiveOp, t0: int) -> bool:
        if self.collective_binding is None:
            raise SimulationError(
                f"core {self.cid}: no collective implementation bound "
                f"(enable CMPConfig.collectives)")
        if self.tracer.enabled or self.flight is not None:
            self._note_barrier(obs_ev.CORE_BARRIER_ENTER,
                               collective=op.kind, ident=op.ident)
        delay = 0
        if self.injector is not None:
            # Same fault surface as a barrier arrival: a collective is a
            # synchronization point.
            delay = self._entry_faults(collective=op.kind)
            if delay is None:
                return False
        seq = self.collective_binding.sequence(self, op)
        return self._enter_sync(seq, None, delay)

    def _entry_faults(self, **detail) -> int | None:
        """Fail-stop and straggler faults at a barrier or collective
        entry: None when the core halts here, else the straggler delay
        before the library frame runs."""
        if self.injector.core_failstop(self.cid):
            # Fail-stop: the core halts here and never announces
            # arrival.  No recovery is modelled (that would need
            # barrier-membership reconfiguration); the run ends in an
            # honest DeadlockError naming this core.
            self.halted = True
            self.stats.bump("faults.core.failstops")
            self._note_barrier(obs_ev.CORE_FAILSTOP, **detail)
            return None
        delay = self.injector.core_straggler_delay(self.cid)
        if delay:
            self.stats.bump("faults.core.stragglers")
            self.stats.add_cycles(self.cid,
                                  self._current_cat(CycleCat.BUSY), delay)
            self._note_barrier(obs_ev.CORE_STRAGGLER, delay=delay)
        return delay

    def _enter_sync(self, seq: Generator, episode: tuple[int, int] | None,
                    delay: int) -> bool:
        """Push a barrier or collective library frame.  Without a
        straggler delay it runs on in the current ``_advance`` (True);
        a straggler's frame first runs *delay* cycles later."""
        self._push_frame(seq, CycleCat.BARRIER, episode)
        if delay:
            self.schedule(delay, self._advance, None)
            return False
        return True

    def _exec_acquire(self, op: isa.AcquireLock, t0: int) -> None:
        if self.lock_binding is None:
            raise SimulationError(
                f"core {self.cid}: no lock implementation bound")
        # A lock taken inside a barrier (or another phase) inherits the
        # enclosing attribution -- e.g. CSW's internal lock is Barrier
        # time (stage S1), not Lock time.
        phase = None if self._phase_stack else CycleCat.LOCK
        self._push_frame(self.lock_binding.acquire_seq(op.lock_addr),
                         phase)
        self.schedule(0, self._advance, None)

    def _exec_release(self, op: isa.ReleaseLock, t0: int) -> None:
        if self.lock_binding is None:
            raise SimulationError(
                f"core {self.cid}: no lock implementation bound")
        phase = None if self._phase_stack else CycleCat.LOCK
        self._push_frame(self.lock_binding.release_seq(op.lock_addr),
                         phase)
        self.schedule(0, self._advance, None)

    # A hardware arrival: write the core's sync register, then sleep
    # until the fabric resumes it through the bound method
    # ``_hw_resume``, keeping the issue cycle.  The op's *delay* is
    # library entry overhead folded into it (see GLineLibrary): charged
    # to the barrier phase at issue, and the write lands that much later.
    def _exec_hw_arrive(self, op: "HWArrive", t0: int) -> None:
        delay = op.delay
        if delay:
            self.stats.add_cycles(self.cid,
                                  self._current_cat(CycleCat.BARRIER),
                                  delay)
        self._issued = t0 + delay
        op.net.arrive(self.cid, *op.operands, self._hw_resume, delay)

    def _hw_resume(self, outcome=None) -> None:
        """The G-line network released (or failed over) this core."""
        self._attr(self._issued, CycleCat.BARRIER)
        if self.tracer.enabled or self.flight is not None:
            self._note_barrier(
                obs_ev.CORE_BARRIER_RESUME,
                outcome="failover" if outcome == FAILOVER else "release")
        self._advance(outcome)

    def _note_barrier(self, kind: str, **detail) -> None:
        """Mirror a barrier lifecycle event to tracer + flight recorder."""
        if self.tracer.enabled:
            self.tracer.emit(self.now, self.name, kind, **detail)
        if self.flight is not None:
            self.flight.record(self.cid, self.now, self.name, kind, **detail)

    # ------------------------------------------------------------------ #
    def _exec_spin(self, op: isa.SpinUntil, t0: int) -> None:
        def try_once() -> None:
            self.l1.load(op.addr, on_value)

        def on_value(v: int) -> None:
            if op.pred(v):
                self._attr(t0, CycleCat.READ)
                self._advance(v)
            else:
                # Sleep until the cached copy is disturbed; the releasing
                # store's invalidation wakes us (event-driven spin).
                self.l1.watch(op.addr, try_once)

        try_once()


def _as_generator(program) -> Generator:
    """Coerce any iterable of ops into a generator frame (a plain list of
    operations is a convenient program form in tests and examples)."""
    if hasattr(program, "send"):
        return program

    def _wrap():
        result = None
        for op in program:
            result = yield op
        return result

    return _wrap()


class HWArrive:
    """Internal operation the G-line library
    (:class:`repro.gline.barrier.GLineLibrary`) expands a ``BarrierOp``
    or ``CollectiveOp`` to; not part of the public ISA.  *operands* are
    what the register write carries: none for bar_reg, ``(kind,
    value)`` for col_reg.  The yield returns what the network resumes
    the core with (None for a barrier, a collective's result, or
    ``FAILOVER``).  *delay* is entry overhead folded into the arrival.
    """

    __slots__ = ("net", "operands", "delay")

    def __init__(self, net, operands: tuple, delay: int = 0):
        self.net = net
        self.operands = operands
        self.delay = delay


#: Exact-type dispatch for Core._execute.  Order mirrors the original
#: isinstance chain so the subclass fallback keeps its precedence.
_DISPATCH: dict[type, Callable] = {
    isa.Compute: Core._exec_compute,
    isa.Load: Core._exec_load,
    isa.Store: Core._exec_store,
    isa.AtomicRMW: Core._exec_atomic,
    isa.SpinUntil: Core._exec_spin,
    isa.BarrierOp: Core._exec_barrier,
    isa.CollectiveOp: Core._exec_collective,
    isa.AcquireLock: Core._exec_acquire,
    isa.ReleaseLock: Core._exec_release,
    HWArrive: Core._exec_hw_arrive,
}
