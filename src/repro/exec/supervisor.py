"""Supervised execution: the one dispatch loop behind ``ParallelRunner``.

Every batch of cache misses runs through :meth:`Supervisor.dispatch`.
Real sweeps meet worse than a raised exception -- OOM-killed children,
wedged runs, flaky hosts -- and an unsupervised pool turns any of those
into a lost (or hung) batch.  This module is the job-supervisor answer:

* **Persistent supervised workers.**  Up to ``jobs`` long-lived worker
  processes, each on its own duplex pipe, take one attempt at a time and
  stay alive after a success or a sim-error.  The parent observes three
  terminal states per attempt: a message arrived (``ok`` or
  ``sim-error``), the worker died silently (``crash`` -- the exitcode
  says how), or a wall-clock deadline passed (``timeout`` -- the worker
  is killed).  A dead or killed worker is replaced on the next launch.
* **Inline runs.**  With ``jobs == 1`` or a single miss, and neither a
  ``timeout`` nor chaos set, specs run in the parent -- there is nothing
  a worker could catch that the parent would survive -- through the same
  completion, journal, metrics and ``keep_going`` code.
* **Deadlines.**  Per-spec, from an explicit ``timeout`` or derived from
  the spec's event budget (`deadline_for`).  No deadline means hangs are
  tolerated.
* **Bounded retries with full-jitter backoff.**  ``timeout`` and
  ``crash`` failures are environmental and retried up to ``retries``
  times, each after ``uniform(0, base * 2**attempt)`` seconds.
  ``sim-error`` failures are *deterministic* (the simulator is) and fail
  fast -- retrying would reproduce the same exception.
* **Quarantine.**  A spec that exhausts its retries is quarantined: a
  :class:`RunFailure` of kind ``quarantined`` records the last underlying
  kind.
* **One error policy.**  Under ``keep_going`` failed slots stay ``None``
  and the failures are returned.  Otherwise the first terminal failure
  stops new launches, in-flight work is drained into the cache, and then
  a sim-error re-raises the worker's original exception while a
  quarantine raises :class:`RunFailureError`.
* **Graceful degradation.**  Every crash shrinks the in-flight width by
  one (never below 1), so a host that kills big pools decays toward
  serial execution instead of thrashing.
* **Clean interrupts.**  On SIGINT the supervisor stops launching,
  stores results that already landed, terminates and joins every worker
  (no zombies), journals an ``interrupted`` marker and re-raises --
  everything completed is in the cache and the journal, ready for
  ``repro resume``.

Every attempt is accounted in ``exec.*`` metric streams with the
identity ``exec.attempts == exec.ok + exec.crashes + exec.timeouts +
exec.sim_errors``.

Chaos (:class:`~repro.faults.chaos.ChaosPlan`) is enacted *inside* the
worker, before the simulation starts, keyed by the supervisor's stable
dispatch ordinal -- so a seeded chaos run strikes the same attempts on
every machine, and results (when attempts survive) are byte-identical to
a calm run's.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import random
import signal
import time
from contextlib import suppress
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _conn_wait

from ..common.errors import ReproError
from ..faults.chaos import HANG, KILL, OOM, ChaosPlan
from ..obs.metrics import MetricsRegistry
from .spec import RunSpec

#: Failure taxonomy (the ``kind`` field of :class:`RunFailure`).
TIMEOUT, CRASH, SIM_ERROR, QUARANTINED = \
    "timeout", "crash", "sim-error", "quarantined"

#: Attempt outcome -> the counter that accounts for it.
_OUTCOME_COUNTERS = {"ok": "exec.ok", CRASH: "exec.crashes",
                     TIMEOUT: "exec.timeouts", SIM_ERROR: "exec.sim_errors"}

#: Deadline heuristic when only an event budget is known: a generous
#: floor plus a conservative per-event allowance (the simulator runs
#: far more than 10k events/s on any supported host).
DEADLINE_FLOOR_S = 10.0
SECONDS_PER_EVENT = 1e-4

#: Hang-chaos without a deadline would wedge forever; runs with
#: ``hang_rate > 0`` and no explicit timeout get this one.
CHAOS_DEFAULT_TIMEOUT_S = 60.0

#: Default retry budget for crashed/timed-out attempts.
DEFAULT_RETRIES = 2

#: Default base for the full-jitter exponential backoff, seconds.
BACKOFF_BASE_S = 0.05
BACKOFF_CAP_S = 2.0


def deadline_for(spec: RunSpec, timeout: float | None) -> float | None:
    """Wall-clock budget for one attempt at *spec* (None = unlimited).

    An explicit *timeout* wins; otherwise a spec with an event budget
    gets ``DEADLINE_FLOOR_S + max_events * SECONDS_PER_EVENT``.
    """
    if timeout is not None:
        return timeout
    if spec.max_events is not None:
        return DEADLINE_FLOOR_S + spec.max_events * SECONDS_PER_EVENT
    return None


@dataclass
class RunFailure:
    """One spec's terminal failure, reported positionally."""

    #: Position of the failed spec in the caller's batch.
    index: int
    #: Cache key (None when the executor runs uncached).
    key: str | None
    #: ``timeout | crash | sim-error | quarantined``.
    kind: str
    #: Attempts consumed (1 = failed on the first try, no retry left).
    attempts: int
    #: Human-readable cause: exception repr, exitcode, deadline.
    detail: str
    #: The exception a sim-error raised (re-raised without keep_going).
    error: BaseException | None = field(default=None, repr=False,
                                        compare=False)

    def __str__(self) -> str:
        where = f"spec[{self.index}]"
        if self.key:
            where += f" {self.key[:12]}"
        return (f"{where}: {self.kind} after {self.attempts} "
                f"attempt(s) -- {self.detail}")


class RunFailureError(ReproError):
    """A batch had terminal crash/timeout failures (and ``keep_going``
    was off, so partial results were cached but not returned)."""

    def __init__(self, failures: list[RunFailure]):
        self.failures = failures
        lines = "; ".join(str(f) for f in failures[:4])
        more = f" (+{len(failures) - 4} more)" if len(failures) > 4 else ""
        super().__init__(
            f"{len(failures)} run(s) failed: {lines}{more}")


# ---------------------------------------------------------------------- #
# Worker side
# ---------------------------------------------------------------------- #
def _enact_chaos(action: str | None, hang_seconds: float) -> None:
    """Carry out a chaos strike in the worker process (or return)."""
    if action == KILL:
        os._exit(40)                      # unclean exit, no traceback
    elif action == OOM:
        os.kill(os.getpid(), signal.SIGKILL)   # the OOM killer's signature
    elif action == HANG:
        deadline = time.monotonic() + hang_seconds
        while time.monotonic() < deadline:     # only a kill ends this
            time.sleep(min(1.0, hang_seconds))


def _portable(exc: Exception) -> Exception:
    """*exc* if it survives the pipe, else a :class:`ReproError` naming
    it (an exception whose pickle cannot be rebuilt would otherwise
    surface in the parent as a crash)."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:                   # noqa: BLE001 -- any pickle failure
        return ReproError(f"{type(exc).__name__}: {exc}")
    return exc


def _worker_main(conn, parent_pid: int) -> None:
    """Worker process entry point: run attempts until told to stop.

    Receives ``(spec, chaos, token, attempt)`` tuples and answers each
    with ``("ok", result_dict)`` or ``("sim-error", exception)``.  A
    chaos strike (or a real crash) sends nothing; the parent reads the
    exitcode instead.  The parent terminates the worker when the batch
    is done.
    """
    from .parallel import _execute_to_dict

    # The parent owns interrupts: it drains and terminates its workers.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        # An orphaned worker (parent killed) would otherwise block on
        # recv forever: copies of the parent's end of this pipe live on
        # in this process and in siblings forked later, so no EOF comes.
        while not conn.poll(1.0):
            if os.getppid() != parent_pid:
                return
        spec, chaos, token, attempt = conn.recv()
        if chaos is not None:
            plan = ChaosPlan.from_dict(chaos)
            _enact_chaos(plan.roll(token, attempt), plan.hang_seconds)
        try:
            reply = ("ok", _execute_to_dict(spec))
        except Exception as exc:        # noqa: BLE001 -- shipped, not hidden
            reply = (SIM_ERROR, _portable(exc))
        conn.send(reply)


# ---------------------------------------------------------------------- #
# Parent side
# ---------------------------------------------------------------------- #
@dataclass
class _Task:
    """One pending spec's supervision state."""

    index: int                  # position in the caller's batch
    spec: RunSpec
    key: str | None
    token: str                  # stable chaos/dispatch ordinal
    attempt: int = 0            # 0-based attempt about to run / running
    ready_at: float = 0.0       # monotonic time the next attempt may start


#: Attempts sent to one worker at a time: the running one plus one
#: queued in its pipe, so the worker starts its next spec without
#: waiting for the parent to store the last result.
WORKER_DEPTH = 2


class _Worker:
    """A persistent worker process, its pipe, and the attempts sent to
    it -- the running one first."""

    def __init__(self, ctx):
        self.conn, child = ctx.Pipe()
        self.process = ctx.Process(target=_worker_main,
                                   args=(child, os.getpid()), daemon=True)
        self.process.start()
        child.close()
        self.tasks: list[_Task] = []
        self.started = 0.0
        self.deadline: float | None = None

    def send(self, task: _Task, chaos: dict | None) -> None:
        self.tasks.append(task)
        # A worker that died idle surfaces as a crash on the next reap.
        with suppress(OSError):
            self.conn.send((task.spec, chaos, task.token, task.attempt))

    def start(self, timeout: float | None) -> None:
        """The first sent attempt starts running now."""
        self.started = time.monotonic()
        budget = deadline_for(self.tasks[0].spec, timeout)
        self.deadline = None if budget is None else self.started + budget


class Supervisor:
    """Runs batches of pending specs under full supervision.

    The constructor captures policy; :meth:`dispatch` executes one batch,
    caching and journaling as results land, and returns the list of
    :class:`RunFailure`\\ s (empty on full success).
    """

    def __init__(self, jobs: int, *, timeout: float | None = None,
                 retries: int = DEFAULT_RETRIES, keep_going: bool = False,
                 journal=None, chaos: ChaosPlan | None = None,
                 metrics: MetricsRegistry,
                 backoff_base: float = BACKOFF_BASE_S,
                 cache=None):
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.jobs = max(1, jobs)
        self.timeout = timeout
        if self.timeout is None and chaos is not None and chaos.hang_rate:
            self.timeout = CHAOS_DEFAULT_TIMEOUT_S
        self.retries = retries
        self.keep_going = keep_going
        self.journal = journal
        self.chaos = chaos if (chaos is not None and chaos.enabled) \
            else None
        self.metrics = metrics
        self.backoff_base = backoff_base
        self.cache = cache
        #: Runner-lifetime dispatch ordinal: the chaos token of the n-th
        #: pending spec ever enqueued.  Stable for a fixed command line,
        #: independent of the code fingerprint, so seeded chaos strikes
        #: the same runs on every commit.
        self._ordinal = 0
        # Backoff jitter: seeded so a retried sweep schedules (not
        # results -- delays never reach the journal) reproducibly.
        self._rng = random.Random(chaos.seed if chaos is not None else 0)

    # ------------------------------------------------------------------ #
    def _count(self, name: str) -> None:
        self.metrics.counter(name).inc()

    def _set_width(self, width: int) -> None:
        self.metrics.gauge("exec.pool.width").set(width)

    # ------------------------------------------------------------------ #
    def dispatch(self, pending, results: list) -> list[RunFailure]:
        """Run *pending* -- ``(index, spec, key)`` triples -- filling
        ``results[index]`` and caching each success as it lands.

        Returns terminal failures under ``keep_going``; otherwise raises
        for them (see the module docstring) after draining, caching and
        journaling everything else in flight.
        """
        queue: list[_Task] = []
        for index, spec, key in pending:
            queue.append(_Task(index=index, spec=spec, key=key,
                               token=str(self._ordinal)))
            self._ordinal += 1
        failures: list[RunFailure] = []
        try:
            if self.timeout is None and self.chaos is None \
                    and (self.jobs == 1 or len(queue) == 1):
                self._run_inline(queue, results, failures)
            else:
                self._run_workers(queue, results, failures)
        except KeyboardInterrupt:
            if self.journal is not None:
                self.journal.interrupted()
            raise
        if failures and not self.keep_going:
            first = failures[0]
            if first.error is not None:
                raise first.error
            raise RunFailureError(failures)
        return failures

    def _aborting(self, failures: list[RunFailure]) -> bool:
        return bool(failures) and not self.keep_going

    def _run_inline(self, queue: list[_Task], results: list,
                    failures: list[RunFailure]) -> None:
        from .parallel import _execute_to_dict

        self._set_width(1)
        for task in queue:
            if self._aborting(failures):
                break           # serial: nothing later has started
            self._count("exec.attempts")
            try:
                outcome = ("ok", _execute_to_dict(task.spec))
            except Exception as exc:    # noqa: BLE001 -- settled below
                outcome = (SIM_ERROR, exc)
            self._settle(task, *outcome, results, failures)

    def _run_workers(self, queue: list[_Task], results: list,
                     failures: list[RunFailure]) -> None:
        ctx = multiprocessing.get_context()
        chaos = self.chaos.to_dict() if self.chaos is not None else None
        width = min(self.jobs, len(queue))
        self._set_width(width)
        workers: list[_Worker] = []
        landed: list[tuple[_Task, dict]] = []
        try:
            while True:
                # Launch while there is width and ready work (when
                # aborting we only drain what is already in flight).
                now = time.monotonic()
                if not self._aborting(failures):
                    for task in [t for t in queue if t.ready_at <= now]:
                        worker = self._slot(ctx, workers, width)
                        if worker is None:
                            break
                        queue.remove(task)
                        worker.send(task, chaos)
                        if len(worker.tasks) == 1:
                            self._start(worker)
                # Store landed results only now, so workers are already
                # busy with their next attempt while the parent caches.
                for task, result_dict in landed:
                    self._settle(task, "ok", result_dict, results,
                                 failures)
                landed.clear()
                busy = [w for w in workers if w.tasks]
                if not busy:
                    if not queue or self._aborting(failures):
                        break
                    # Everything pending is backing off; sleep to the
                    # soonest ready time.
                    soonest = min(t.ready_at for t in queue)
                    time.sleep(max(0.0, soonest - now))
                    continue

                self._await(busy)
                for worker in busy:
                    outcome = self._reap(worker)
                    if outcome is None:
                        continue            # still running
                    task = worker.tasks.pop(0)
                    kind, payload = outcome
                    if kind in ("ok", SIM_ERROR):
                        if worker.tasks:
                            self._start(worker)
                    else:                   # the worker is gone
                        workers.remove(worker)
                        worker.conn.close()
                        # Sent but never started: not an attempt.
                        queue[:0] = worker.tasks
                    if kind == "ok":
                        landed.append((task, payload))
                        continue
                    if kind == CRASH:
                        width = max(1, width - 1)
                        self._set_width(width)
                    if self._settle(task, kind, payload, results,
                                    failures):
                        queue.append(task)
        except KeyboardInterrupt:
            # Results that already landed are real; keep them.
            for task, result_dict in landed:
                self._store(task, result_dict)
            self._drain(workers)
            raise
        finally:
            self._stop(workers)

    def _slot(self, ctx, workers: list[_Worker],
              width: int) -> _Worker | None:
        """The worker to send the next attempt to: an idle one, else a
        new one while below *width*, else one with room in its pipe."""
        for worker in workers:
            if not worker.tasks:
                return worker
        if len(workers) < width:
            workers.append(_Worker(ctx))
            return workers[-1]
        return next((w for w in workers if len(w.tasks) < WORKER_DEPTH),
                    None)

    def _start(self, worker: _Worker) -> None:
        self._count("exec.attempts")
        worker.start(self.timeout)

    # ------------------------------------------------------------------ #
    @staticmethod
    def _await(busy: list[_Worker]) -> None:
        """Block until a result lands, a worker dies, or the nearest
        deadline (or a short poll tick) expires."""
        now = time.monotonic()
        waits = [0.1]
        for worker in busy:
            if worker.deadline is not None:
                waits.append(worker.deadline - now)
        handles = [w.conn for w in busy] + [w.process.sentinel for w in busy]
        _conn_wait(handles, max(0.0, min(waits)))

    def _reap(self, worker: _Worker):
        """Terminal state of *worker*'s attempt, or None if it is still
        running.  Returns ``("ok", result_dict)`` or ``(kind, payload)``.
        """
        # Sample liveness BEFORE polling the pipe: a worker that answered
        # and then died (it cannot, idle, but an external kill can) must
        # not have its answer misread as a crash.
        alive = worker.process.is_alive()
        if worker.conn.poll():
            try:
                return worker.conn.recv()
            except (EOFError, OSError):
                return self._crash_outcome(worker)
        if not alive:
            return self._crash_outcome(worker)
        if worker.deadline is not None \
                and time.monotonic() >= worker.deadline:
            self._kill(worker.process)
            elapsed = time.monotonic() - worker.started
            return (TIMEOUT, f"deadline {elapsed:.1f}s exceeded")
        return None

    def _crash_outcome(self, worker: _Worker):
        self._kill(worker.process)      # reaps it; a no-op if it is dead
        code = worker.process.exitcode
        how = f"signal {-code}" if (code is not None and code < 0) \
            else f"exitcode {code}"
        return (CRASH, f"worker died ({how})")

    @staticmethod
    def _kill(process) -> None:
        process.terminate()
        process.join(timeout=2.0)
        if process.is_alive():          # SIGTERM ignored; escalate
            process.kill()
            process.join()

    def _drain(self, workers: list[_Worker]) -> None:
        """On interrupt: store answers that already arrived."""
        for worker in workers:
            if not worker.tasks or not worker.conn.poll():
                continue
            task = worker.tasks[0]
            with suppress(EOFError, OSError):
                kind, payload = worker.conn.recv()
                if kind == "ok":
                    self._store(task, payload)
                    if self.journal is not None:
                        self.journal.done(task.key or task.token,
                                          task.attempt + 1)

    def _stop(self, workers: list[_Worker]) -> None:
        """Terminate and join every worker: they hold nothing but their
        pipe (results and the cache live in the parent)."""
        for worker in workers:
            self._kill(worker.process)
            worker.conn.close()
        workers.clear()

    # ------------------------------------------------------------------ #
    def _settle(self, task: _Task, kind: str, payload, results: list,
                failures: list[RunFailure]) -> bool:
        """Account one finished attempt; True when it must be retried."""
        self._count(_OUTCOME_COUNTERS[kind])
        if kind == "ok":
            self._store(task, payload)
            from .parallel import _result_decoder

            results[task.index] = _result_decoder(task.spec)(payload)
            if self.journal is not None:
                self.journal.attempt(task.key or task.token, task.attempt,
                                     "ok")
                self.journal.done(task.key or task.token, task.attempt + 1)
            return False
        error = payload if kind == SIM_ERROR else None
        detail = f"{type(error).__name__}: {error}" \
            if error is not None else payload
        if self.journal is not None:
            self.journal.attempt(task.key or task.token, task.attempt,
                                 kind, detail=detail)
        if kind != SIM_ERROR and task.attempt < self.retries:
            self._schedule_retry(task)
            return True
        failures.append(self._fail(task, kind, detail, error))
        return False

    def _store(self, task: _Task, result_dict: dict) -> None:
        if self.cache is not None and task.key is not None:
            self.cache.put(task.key, task.spec.fingerprint(), result_dict)

    def _schedule_retry(self, task: _Task) -> None:
        delay = self._rng.uniform(
            0.0, min(BACKOFF_CAP_S,
                     self.backoff_base * (2 ** task.attempt)))
        task.attempt += 1
        task.ready_at = time.monotonic() + delay
        self._count("exec.retries")
        self.metrics.histogram("exec.retry.delay_ms") \
            .record(int(delay * 1000))

    def _fail(self, task: _Task, kind: str, detail: str,
              error: BaseException | None) -> RunFailure:
        attempts = task.attempt + 1
        if kind == SIM_ERROR:
            failure = RunFailure(index=task.index, key=task.key,
                                 kind=SIM_ERROR, attempts=attempts,
                                 detail=detail, error=error)
        else:
            # Retries exhausted: the spec is poison; quarantine it.
            self._count("exec.quarantined")
            failure = RunFailure(index=task.index, key=task.key,
                                 kind=QUARANTINED, attempts=attempts,
                                 detail=f"last failure: {kind} ({detail})")
        if self.journal is not None:
            self.journal.quarantine(task.key or task.token, attempts,
                                    kind)
        return failure
