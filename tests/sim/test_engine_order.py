"""Engine execution order against a minimal list-based reference.

Random event scripts (nested scheduling, zero delays, mixed priorities,
cancellations, run/step/until/max_events interleavings) run on
:class:`Engine` and on :class:`ReferenceEngine`, which states the
ordering contract in its plainest form.  The exact global
``(time, priority, seq)`` order, the clock, the executed-event count
and ``pending()`` must agree.  Ordering is where a faster engine can
silently diverge, so it gets the volume.

Each script also runs on an :class:`Engine` without an order log: an
unbounded ``run()`` then takes the engine's common-case loop, which
must produce the same callback trace, clock, count and ``pending()``.

Batch scripts add ``schedule_batch`` items, joining a batch or
interrupted by a plain ``schedule``, whose same-cycle children carry
priorities 0, 1 and 10.  The reference runs each item as its own event,
so the callback trace and the clock must match it; the event counts
and order logs differ by design (a batch is one event).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.common.errors import SimulationError
from repro.sim import Engine


class ReferenceEngine:
    """A plain list of pending events; the next one is ``min()`` on
    ``(time, priority, seq)``.  Cancelled handles are skipped when their
    event is reached (lazy cancel), still advancing the clock."""

    def __init__(self):
        self.events = []
        self.now = 0
        self.seq = 0
        self.cancelled = set()
        self.events_executed = 0
        self.order_log = []

    def pending(self):
        return len(self.events)

    def schedule(self, delay, callback, *args, priority=0):
        self.seq += 1
        self.events.append((self.now + delay, priority, self.seq,
                            callback, args))
        return self.seq

    def schedule_batch(self, time, run, item):
        """Every item is its own event."""
        self.schedule(time - self.now, run, [item])

    def cancel(self, handle):
        self.cancelled.add(handle)

    def _advance(self):
        """Reap the earliest event; run it unless cancelled."""
        event = min(self.events, key=lambda e: e[:3])
        self.events.remove(event)
        time, priority, seq, callback, args = event
        self.now = time
        if seq in self.cancelled:
            self.cancelled.discard(seq)
            return False
        self.events_executed += 1
        self.order_log.append((time, priority, seq, callback.__qualname__))
        callback(*args)
        return True

    def step(self):
        while self.events:
            if self._advance():
                return True
        return False

    def run(self, until=None, max_events=None):
        while self.events:
            if max_events is not None and self.events_executed >= max_events:
                break
            if until is not None and min(e[0] for e in self.events) > until:
                self.now = until
                break
            self._advance()
        else:
            if until is not None:
                self.now = max(self.now, until)
        return self.now


#: One scripted action: (delay, priority, children, cancel_child).
#: ``children`` spawn from inside the callback; ``cancel_child`` cancels
#: the handle of a sibling scheduled in the same callback.
_action = st.tuples(st.integers(0, 30),
                    st.sampled_from([-2, -1, 0, 0, 0, 0, 1, 3, 10]),
                    st.integers(0, 3),
                    st.booleans())


def _run_script(engine, actions, stop_cycle, logged=True):
    """Deterministically replay *actions* on *engine*; returns the full
    observable outcome (order log includes time/priority/seq; ``None``
    when not *logged*)."""
    engine.order_log = [] if logged else None
    trace = []
    pool = list(actions)

    def cb(tag):
        trace.append((tag, engine.now))
        if engine.now >= stop_cycle or not pool:
            return
        delay, priority, children, cancel_child = pool.pop()
        handles = [engine.schedule(delay + i, cb, f"{tag}.{i}",
                                   priority=priority)
                   for i in range(children)]
        if cancel_child and handles:
            engine.cancel(handles[len(handles) // 2])

    for i, (delay, priority, _, _) in enumerate(actions[:12]):
        engine.schedule(delay, cb, f"root{i}", priority=priority)
    engine.run()
    return (trace, engine.order_log, engine.now, engine.events_executed,
            engine.pending())


@settings(max_examples=200, deadline=None)
@given(actions=st.lists(_action, min_size=1, max_size=60),
       stop_cycle=st.integers(10, 300))
def test_engine_order_matches_reference(actions, stop_cycle):
    reference = _run_script(ReferenceEngine(), actions, stop_cycle)
    assert _run_script(Engine(), actions, stop_cycle) == reference
    trace, _log, now, executed, pending = reference
    assert (_run_script(Engine(), actions, stop_cycle, logged=False)
            == (trace, None, now, executed, pending))


@settings(max_examples=60, deadline=None)
@given(actions=st.lists(_action, min_size=1, max_size=40),
       budgets=st.lists(st.integers(1, 25), min_size=1, max_size=5),
       until_step=st.integers(5, 50))
def test_engine_budgeted_run_matches_reference(actions, budgets,
                                               until_step):
    """Interleaved max_events slices, until windows and single steps must
    leave both engines in identical externally-visible states."""
    outcomes = []
    for engine, logged in ((Engine(), True), (ReferenceEngine(), True),
                           (Engine(), False)):
        engine.order_log = [] if logged else None
        pool = list(actions)
        trace = []

        def cb(tag, engine=engine, pool=pool, trace=trace):
            trace.append((tag, engine.now))
            if not pool:
                return
            delay, priority, children, _ = pool.pop()
            for i in range(min(children, 2)):
                engine.schedule(delay + i, cb, f"{tag}.{i}",
                                priority=priority)

        for i, (delay, priority, _, _) in enumerate(actions[:10]):
            engine.schedule(delay, cb, f"r{i}", priority=priority)
        states = []
        for budget in budgets:
            engine.run(max_events=engine.events_executed + budget)
            states.append((engine.now, engine.events_executed,
                           engine.pending()))
            engine.step()
            engine.run(until=engine.now + until_step)
            states.append((engine.now, engine.events_executed,
                           engine.pending()))
        engine.run()
        outcomes.append((trace, states, engine.order_log, engine.now,
                         engine.events_executed, engine.pending()))
    assert outcomes[0] == outcomes[1]
    trace, states, _log, now, executed, pending = outcomes[1]
    assert outcomes[2] == (trace, states, None, now, executed, pending)


# ---------------------------------------------------------------------- #
# Batches
# ---------------------------------------------------------------------- #
#: One scripted child: (kind, delay, priority).  Kind 0 is a plain
#: event at *priority*; kinds 1 and 2 are items of two different batch
#: runs (priority 0).  A callback spawns one list of children, in order.
_child = st.tuples(st.integers(0, 2), st.integers(0, 2),
                   st.sampled_from([0, 0, 1, 10]))
_children = st.lists(_child, max_size=4)


class _Batches:
    """A batch run: calls the script's callback on each item, in order,
    marking the item with the run's own *mark*."""

    def __init__(self, cb, mark=""):
        self.cb = cb
        self.mark = mark

    def run(self, items):
        for tag in items:
            self.cb(tag + self.mark)


def _run_batch_script(engine, script, stop_cycle, moves=()):
    """Replay *script* (a list of child lists, the first the roots') on
    *engine*, driving it by *moves* -- ``("until", cycle)``, ``("max",
    k)`` or ``("step",)`` -- and then a full ``run()``; returns the
    callback trace and the clock.  An ``until`` cycle is absolute: the
    engines stop at different items, but end on the same clock."""
    trace = []
    pool = list(script[1:])

    def spawn(tag, children):
        for i, (kind, delay, priority) in enumerate(children):
            child = f"{tag}.{i}"
            if kind:
                engine.schedule_batch(engine.now + delay, runs[kind], child)
            else:
                engine.schedule(delay, cb, child, priority=priority)

    def cb(tag):
        trace.append((tag, engine.now))
        if engine.now < stop_cycle and pool:
            spawn(tag, pool.pop())

    runs = [None, _Batches(cb, "/1").run, _Batches(cb, "/2").run]
    spawn("root", script[0])
    for move in moves:
        if move[0] == "until":
            engine.run(until=max(engine.now, move[1]))
        elif move[0] == "max":
            engine.run(max_events=engine.events_executed + move[1])
        else:
            engine.step()
    engine.run()
    return trace, engine.now


def _batch_outcomes(script, stop_cycle, moves=()):
    """The reference's outcome, and the engine's with and without an
    order log (the bounded and the common-case loop)."""
    outcomes = []
    for engine, logged in ((ReferenceEngine(), True), (Engine(), True),
                           (Engine(), False)):
        engine.order_log = [] if logged else None
        outcomes.append(_run_batch_script(engine, script, stop_cycle,
                                          moves))
    return outcomes


_move = st.one_of(st.tuples(st.just("until"), st.integers(0, 60)),
                  st.tuples(st.just("max"), st.integers(1, 6)),
                  st.tuples(st.just("step")))


@settings(max_examples=200, deadline=None)
@given(script=st.lists(_children, min_size=1, max_size=50),
       stop_cycle=st.integers(5, 60))
def test_batches_match_reference(script, stop_cycle):
    reference, logged, unlogged = _batch_outcomes(script, stop_cycle)
    assert logged == reference
    assert unlogged == reference


@settings(max_examples=100, deadline=None)
@given(script=st.lists(_children, min_size=1, max_size=40),
       stop_cycle=st.integers(5, 60),
       moves=st.lists(_move, max_size=8))
def test_batches_under_budgets_match_reference(script, stop_cycle, moves):
    """Stopping on ``until``, ``max_events`` or ``step`` between batches
    (a batch counts once, so the stops fall at different items than in
    the reference) does not change what runs when."""
    reference, logged, unlogged = _batch_outcomes(script, stop_cycle,
                                                  moves)
    assert logged == reference
    assert unlogged == reference


def test_items_join_one_event_until_a_plain_schedule():
    """Back-to-back items of one run share an event; a plain event
    scheduled between them, or another run, starts a new batch, and a
    batch that already ran takes no more items."""
    engine = Engine()
    engine.order_log = []
    seen = []

    def late():
        # Nothing was scheduled since the last batch, which has run.
        engine.schedule_batch(3, run, "f")

    engine.schedule(3, late, priority=10)
    run = _Batches(lambda tag: seen.append((tag, engine.now))).run
    other = _Batches(lambda tag: seen.append((tag, engine.now)), "'").run
    for tag in "ab":
        engine.schedule_batch(3, run, tag)
    engine.schedule(3, seen.append, ("plain", 3))
    engine.schedule_batch(3, other, "c")
    for tag in "de":
        engine.schedule_batch(3, run, tag)
    engine.run()
    assert seen == [("a", 3), ("b", 3), ("plain", 3), ("c'", 3), ("d", 3),
                    ("e", 3), ("f", 3)]
    assert engine.events_executed == 6
    assert [name.rsplit(".", 1)[1] for *_, name in engine.order_log] == [
        "run", "append", "run", "run", "late", "run"]


class _JoinAcrossEngine(Engine):
    """Planted: an item joins the last batch even when a plain event was
    scheduled since it."""

    def schedule_batch(self, time, run, item):
        self._batch_seq = self._seq
        super().schedule_batch(time, run, item)


def test_planted_join_across_a_schedule_is_caught():
    # The root spawns item ``root.0``, plain ``root.1`` and item
    # ``root.2``, all at cycle 0: the plain event runs between them.
    script = [[(1, 0, 0), (0, 0, 0), (1, 0, 0)]]
    reference, _, _ = _batch_outcomes(script, stop_cycle=5)
    assert [tag for tag, _ in reference[0]] == ["root.0/1", "root.1",
                                                "root.2/1"]
    planted = _run_batch_script(_JoinAcrossEngine(), script, stop_cycle=5)
    assert planted != reference


def test_negative_priority_child_of_an_item_is_outside_the_contract():
    """An item that schedules a same-cycle event at a negative priority
    would run it before the next item as separate events, but after the
    batch: the one case the join rule does not cover, and none of the
    simulator's components does it."""
    outcomes = []
    for engine in (ReferenceEngine(), Engine()):
        seen = []

        def item(tag, engine=engine, seen=seen):
            seen.append(tag)
            if tag == "a":
                engine.schedule(0, seen.append, "urgent", priority=-1)

        run = _Batches(item).run
        for tag in "ab":
            engine.schedule_batch(0, run, tag)
        engine.run()
        outcomes.append(seen)
    assert outcomes == [["a", "urgent", "b"], ["a", "b", "urgent"]]


def test_batch_at_now_is_accepted_and_the_past_rejected():
    engine = Engine()
    engine.schedule(5, lambda: None)
    engine.run()
    run = _Batches(lambda tag: None).run
    with pytest.raises(SimulationError):
        engine.schedule_batch(4, run, "x")
    engine.schedule_batch(5, run, "x")
    assert engine.pending() == 1
