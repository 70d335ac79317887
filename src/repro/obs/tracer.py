"""Tracers: where instrumented components send their events.

The base :class:`Tracer` discards everything and advertises
``enabled = False``; every instrumentation site in the simulator guards its
emit with that flag, so a run without tracing pays a single attribute read
per site and allocates nothing -- the property the overhead-guard tests
pin down.

:class:`RingTracer` is the real sink: a bounded ring buffer that keeps the
*newest* events, counts what it had to drop, and can filter by event kind
and/or source at emit time (filtering early keeps a long run's buffer
full of the events you actually asked for).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterable

from .events import TraceEvent

#: Default ring capacity -- roomy enough for full small-chip runs, bounded
#: enough that a million-barrier sweep cannot exhaust memory.
DEFAULT_CAPACITY = 1 << 16


class Tracer:
    """Base tracer: discards everything."""

    enabled = False

    def emit(self, time: int, source: str, kind: str, **detail: Any) -> None:
        """Record one trace event (no-op in the base class)."""


class RingTracer(Tracer):
    """Bounded ring-buffer tracer with drop accounting and filtering.

    *capacity* bounds the buffer (``None`` = unbounded); when full, the
    oldest event is evicted and ``dropped`` incremented, so
    ``emitted == len(events) + dropped + filtered`` always holds.
    *kinds* / *sources* restrict what is kept (exact-match sets; ``None``
    keeps everything).
    """

    enabled = True

    def __init__(self, capacity: int | None = DEFAULT_CAPACITY,
                 kinds: set[str] | None = None,
                 sources: set[str] | None = None):
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.capacity = capacity
        self.kinds = set(kinds) if kinds is not None else None
        self.sources = set(sources) if sources is not None else None
        self._ring: deque[TraceEvent] = deque()
        #: Events accepted into the ring (survived filters), total.
        self.emitted = 0
        #: Events evicted because the ring was full.
        self.dropped = 0
        #: Events rejected by the kind/source filters.
        self.filtered = 0

    # ------------------------------------------------------------------ #
    def emit(self, time: int, source: str, kind: str, **detail: Any) -> None:
        if self.kinds is not None and kind not in self.kinds:
            self.filtered += 1
            return
        if self.sources is not None and source not in self.sources:
            self.filtered += 1
            return
        if self.capacity is not None and len(self._ring) >= self.capacity:
            self._ring.popleft()
            self.dropped += 1
        self._ring.append(TraceEvent(time, source, kind, detail))
        self.emitted += 1

    # ------------------------------------------------------------------ #
    @property
    def events(self) -> list[TraceEvent]:
        """The retained events, oldest first."""
        return list(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self) -> Iterable[TraceEvent]:
        return iter(self._ring)

    def of_kind(self, kind: str) -> list[TraceEvent]:
        return [e for e in self._ring if e.kind == kind]

    def of_source(self, source: str) -> list[TraceEvent]:
        return [e for e in self._ring if e.source == source]

    def clear(self) -> None:
        """Drop all retained events and reset the accounting."""
        self._ring.clear()
        self.emitted = 0
        self.dropped = 0
        self.filtered = 0

    def accounting(self) -> dict[str, int]:
        """Emit/drop/filter counters (exported alongside trace artifacts)."""
        return {"retained": len(self._ring), "emitted": self.emitted,
                "dropped": self.dropped, "filtered": self.filtered}


#: Shared do-nothing tracer instance.
NULL_TRACER = Tracer()
