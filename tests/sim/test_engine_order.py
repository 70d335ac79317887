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
"""

from hypothesis import given, settings
from hypothesis import strategies as st

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
