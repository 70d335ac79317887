"""Discrete-event simulation kernel.

A single binary-heap event queue drives the whole chip.  Events are
``(time, priority, seq, callback, args)`` tuples; ``seq`` is a monotonically
increasing tie-breaker so execution order is fully deterministic for equal
timestamps (a requirement for reproducible experiments and property tests).

The engine is deliberately minimal -- per the profiling-first guidance, the
hot path is ``schedule`` + ``run``'s pop loop, so both avoid any allocation
beyond the event tuple itself.  ``run`` keeps a lean loop for the common
case of draining the queue with no budget and no order log.
``schedule_batch`` folds calls that would run back to back in that
order into one event: a G-line release of k cores costs one event.

It is the only engine: ``tests/sim/test_engine_order.py`` pins its
execution order against a minimal list-based reference, and chip-level
determinism is checked by comparing the order logs of two runs.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from ..common.errors import SimulationError
from ..obs.tracer import NULL_TRACER, Tracer

Callback = Callable[..., None]


class Engine:
    """Deterministic discrete-event engine with integer cycle time."""

    __slots__ = ("_queue", "_now", "_seq", "_running", "_cancelled",
                 "events_executed", "tracer", "order_log", "_batch_seq",
                 "_batch_time", "_batch_run", "_batch_items",
                 "_batch_executed")

    def __init__(self) -> None:
        self._queue: list[tuple[int, int, int, Callback, tuple[Any, ...]]] = []
        self._now: int = 0
        self._seq: int = 0
        self._running = False
        #: Sequence numbers whose events were cancelled but not yet reaped
        #: from the queue (lazy deletion keeps ``cancel`` O(1)).
        self._cancelled: set[int] = set()
        self.events_executed: int = 0
        #: Observability sink; NULL_TRACER keeps the hot path allocation-free.
        self.tracer: Tracer = NULL_TRACER
        #: Optional execution-order probe: when set to a list, every
        #: executed event appends ``(time, priority, seq, qualname)``.
        #: Determinism tests compare two runs' logs event for event;
        #: ``None`` (the default) costs one attribute read per run() call.
        self.order_log: Optional[list[tuple[int, int, int, str]]] = None
        #: The last batch ``schedule_batch`` pushed: its sequence number,
        #: cycle, ``run`` and item list, and ``events_executed`` when it
        #: was pushed.
        self._batch_seq = -1
        self._batch_time = 0
        self._batch_run: Optional[Callback] = None
        self._batch_items: list[Any] = []
        self._batch_executed = 0

    # ------------------------------------------------------------------ #
    @property
    def now(self) -> int:
        """Current simulation time in cycles."""
        return self._now

    def pending(self) -> int:
        """Number of events still queued (cancelled-but-unreaped events
        count until their cycle is reached)."""
        return len(self._queue)

    # ------------------------------------------------------------------ #
    def schedule(self, delay: int, callback: Callback, *args: Any,
                 priority: int = 0) -> int:
        """Schedule *callback(args)* to run ``delay`` cycles from now.

        ``priority`` breaks same-cycle ties before the sequence number:
        lower priority values run first.  Components use it sparingly
        (e.g. the G-line network samples transmitters after all writers of
        the same cycle have asserted).

        Returns an opaque handle accepted by :meth:`cancel`.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: {delay}")
        self._seq += 1
        heapq.heappush(self._queue, (self._now + delay, priority, self._seq,
                                     callback, args))
        return self._seq

    def schedule_at(self, time: int, callback: Callback, *args: Any,
                    priority: int = 0) -> int:
        """Schedule *callback(args)* at absolute cycle ``time``.

        Returns an opaque handle accepted by :meth:`cancel`."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time}, now is {self._now}")
        self._seq += 1
        heapq.heappush(self._queue, (time, priority, self._seq,
                                     callback, args))
        return self._seq

    def schedule_batch(self, time: int, run: Callable[[list[Any]], None],
                       item: Any) -> None:
        """Schedule ``run(items)`` at absolute cycle ``time``, priority 0,
        with *item* in ``items``; returns no handle.

        *item* joins the most recently scheduled event instead of
        pushing one when that event is a batch of the same *run* (bound
        methods compare equal when they bind one function to one
        object) for the same cycle, nothing has been scheduled since it
        (``_seq`` has not moved), and it has not started: its cycle is
        still ahead, or no event has run since it was pushed.  *run*
        must call its items in list order.

        An item joins only where its own event would have been the next
        one in ``(time, priority, seq)`` order, so a batch runs its
        items exactly as separate events would.  Whatever an item
        schedules gets a later ``seq`` than the batch and runs after
        its last item, as it would after the last separate event; this
        holds as long as no item schedules an event for its own cycle
        with a negative priority.  An item that raises drops the items
        after it.

        A batch is one event: it counts once for ``events_executed``,
        ``max_events``, ``order_log`` (under *run*'s name) and
        ``step()``.
        """
        if (self._seq == self._batch_seq and time == self._batch_time
                and (time > self._now
                     or self.events_executed == self._batch_executed)
                and run == self._batch_run):
            self._batch_items.append(item)
            return
        items = [item]
        self.schedule_at(time, run, items)
        self._batch_seq = self._seq
        self._batch_time = time
        self._batch_run = run
        self._batch_items = items
        self._batch_executed = self.events_executed

    def cancel(self, handle: int) -> None:
        """Cancel the event identified by *handle* (a value returned by
        :meth:`schedule`/:meth:`schedule_at`).

        Cancellation is lazy: the event stays queued until its cycle is
        reached, then is discarded without executing (it neither runs nor
        counts toward ``events_executed``/``max_events``).  Cancelling an
        event that already executed, or an unknown handle, is a silent
        no-op.  The simulation clock still advances to the cancelled
        event's cycle when it is reaped, exactly as if an empty event ran
        there.
        """
        self._cancelled.add(handle)

    # ------------------------------------------------------------------ #
    def run(self, until: int | None = None,
            max_events: int | None = None) -> int:
        """Run until the queue drains, ``until`` cycles pass, or
        ``max_events`` events execute.  Returns the final time."""
        if self._running:
            raise SimulationError("engine is not reentrant")
        if until is not None and until < self._now:
            raise SimulationError(
                f"cannot run until {until}, now is already {self._now}")
        self._running = True
        if self.tracer.enabled:
            self.tracer.emit(self._now, "engine", "engine.run.begin",
                             until=until, max_events=max_events,
                             pending=len(self._queue))
        log = self.order_log
        try:
            if until is None and max_events is None and log is None:
                # The common case, every chip run: drain the queue.  Pop
                # without peeking, but still reap the events a callback
                # cancels mid-run.
                queue = self._queue
                cancelled = self._cancelled
                pop = heapq.heappop
                while queue:
                    time, _prio, seq, callback, args = pop(queue)
                    self._now = time
                    if cancelled and seq in cancelled:
                        cancelled.discard(seq)
                        continue
                    self.events_executed += 1
                    callback(*args)
            else:
                self._run_bounded(until, max_events, log)
        finally:
            self._running = False
        if self.tracer.enabled:
            self.tracer.emit(self._now, "engine", "engine.run.end",
                             events=self.events_executed,
                             pending=len(self._queue))
        return self._now

    def _run_bounded(self, until: int | None, max_events: int | None,
                     log: Optional[list[tuple[int, int, int, str]]]
                     ) -> None:
        """``run``'s general loop: peek before popping so that ``until``
        and ``max_events`` can stop it, and log the order if asked."""
        queue = self._queue
        cancelled = self._cancelled
        while queue:
            if (max_events is not None
                    and self.events_executed >= max_events):
                break
            time, prio, seq, callback, args = queue[0]
            if until is not None and time > until:
                self._now = until
                break
            heapq.heappop(queue)
            self._now = time
            if cancelled and seq in cancelled:
                cancelled.discard(seq)
                continue
            self.events_executed += 1
            if log is not None:
                log.append((time, prio, seq,
                            getattr(callback, "__qualname__", "?")))
            callback(*args)
        else:
            if until is not None and until > self._now:
                self._now = until

    def step(self) -> bool:
        """Execute exactly one event.  Returns False if the queue is empty
        (cancelled events are reaped silently, never "executed")."""
        cancelled = self._cancelled
        while self._queue:
            time, prio, seq, callback, args = heapq.heappop(self._queue)
            self._now = time
            if cancelled and seq in cancelled:
                cancelled.discard(seq)
                continue
            self.events_executed += 1
            if self.order_log is not None:
                self.order_log.append((time, prio, seq,
                                       getattr(callback, "__qualname__",
                                               "?")))
            callback(*args)
            return True
        return False
