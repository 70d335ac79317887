"""Base class for simulated hardware components."""

from __future__ import annotations

from typing import Any

from .engine import Callback, Engine
from ..common.stats import StatsRegistry
from ..obs.tracer import NULL_TRACER


class Component:
    """A named component bound to the shared engine and stats registry.

    Components communicate only by scheduling events on the shared engine;
    they never call each other synchronously across timing boundaries, which
    keeps every latency explicit.

    ``tracer``/``metrics`` are observability sinks; the chip builder
    replaces them when an :class:`~repro.obs.Observability` bundle is
    active, and every emit site guards on ``tracer.enabled`` /
    ``metrics is not None`` so disabled runs pay one attribute read.
    """

    def __init__(self, engine: Engine, stats: StatsRegistry,
                 name: str):
        self.engine = engine
        self.stats = stats
        self.name = name
        self.tracer: Any = NULL_TRACER
        self.metrics: Any = None

    @property
    def now(self) -> int:
        return self.engine._now

    def schedule(self, delay: int, callback: Callback, *args: Any,
                 priority: int = 0) -> None:
        self.engine.schedule(delay, callback, *args, priority=priority)

    def schedule_batched(self, time: int, callback: Callback,
                         *args: Any) -> None:
        """Run ``callback(*args)`` at cycle *time*, in one engine event
        with the calls this component batched just before it for that
        cycle (:meth:`Engine.schedule_batch`).  The batch is this
        component's event, so a profiler times it as this component's
        layer."""
        self.engine.schedule_batch(time, self._run_batch, (callback, args))

    def _run_batch(self, calls: list[tuple[Callback, tuple[Any, ...]]]
                   ) -> None:
        for callback, args in calls:
            callback(*args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"
