"""Ring-buffer tracer tests: wraparound, accounting, filters."""

import pytest

from repro.obs import (
    DEFAULT_CAPACITY,
    NULL_TRACER,
    RingTracer,
    TraceEvent,
)


def fill(tr, n, kind="k", source="s"):
    for i in range(n):
        tr.emit(i, source, kind, i=i)


# ---------------------------------------------------------------------- #
# Ring semantics
# ---------------------------------------------------------------------- #
def test_ring_keeps_newest_on_overflow():
    tr = RingTracer(capacity=4)
    fill(tr, 10)
    assert len(tr) == 4
    assert [e.time for e in tr.events] == [6, 7, 8, 9]
    assert tr.dropped == 6
    assert tr.emitted == 10


def test_accounting_balances():
    tr = RingTracer(capacity=3, kinds={"keep"})
    for i in range(5):
        tr.emit(i, "s", "keep")
    for i in range(4):
        tr.emit(i, "s", "reject")
    acc = tr.accounting()
    assert acc == {"retained": 3, "emitted": 5, "dropped": 2, "filtered": 4}
    assert acc["emitted"] == acc["retained"] + acc["dropped"]


def test_unbounded_capacity_none():
    tr = RingTracer(capacity=None)
    fill(tr, 1000)
    assert len(tr) == 1000
    assert tr.dropped == 0


def test_capacity_below_one_rejected():
    with pytest.raises(ValueError):
        RingTracer(capacity=0)
    with pytest.raises(ValueError):
        RingTracer(capacity=-3)


def test_clear_resets_counters():
    tr = RingTracer(capacity=2, kinds={"a"})
    tr.emit(1, "s", "a")
    tr.emit(2, "s", "b")
    tr.clear()
    assert tr.events == []
    assert tr.accounting() == {"retained": 0, "emitted": 0,
                               "dropped": 0, "filtered": 0}


# ---------------------------------------------------------------------- #
# Filters
# ---------------------------------------------------------------------- #
def test_kind_and_source_filters():
    tr = RingTracer(kinds={"load"}, sources={"core0"})
    tr.emit(1, "core0", "load")     # accepted
    tr.emit(2, "core1", "load")     # wrong source
    tr.emit(3, "core0", "store")    # wrong kind
    assert [e.time for e in tr.events] == [1]
    assert tr.filtered == 2


def test_iteration_and_queries():
    tr = RingTracer()
    tr.emit(5, "a", "x", v=1)
    tr.emit(6, "b", "y", v=2)
    assert [e.kind for e in tr] == ["x", "y"]
    assert [e.source for e in tr.of_source("b")] == ["b"]
    assert tr.of_kind("x")[0].detail == {"v": 1}


def test_event_str_and_dict():
    e = TraceEvent(7, "glnet", "gline.arrive", {"core": 3, "arrived": 1})
    assert e.to_dict() == {"time": 7, "source": "glnet",
                           "kind": "gline.arrive",
                           "detail": {"core": 3, "arrived": 1}}
    assert str(e).startswith("@7 glnet gline.arrive")


def test_list_tracer_is_bounded_by_default():
    """A default tracer cannot grow without bound on a long run."""
    tr = RingTracer()
    fill(tr, DEFAULT_CAPACITY + 5)
    assert len(tr) == DEFAULT_CAPACITY
    assert tr.dropped == 5


def test_null_tracer_disabled_and_silent():
    assert not NULL_TRACER.enabled
    NULL_TRACER.emit(1, "x", "anything", junk=object())  # must not raise
