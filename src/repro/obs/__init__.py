"""repro.obs -- the observability subsystem.

Structured tracing, metric streams, trace exporters and the barrier
flight recorder.  The pieces:

* :mod:`repro.obs.events` -- the typed :class:`TraceEvent` schema and the
  kind vocabulary every instrumented layer emits.
* :mod:`repro.obs.tracer` -- :class:`RingTracer`, a bounded drop-counting
  ring buffer with per-kind/per-source filtering (plus the no-op
  :data:`NULL_TRACER`).
* :mod:`repro.obs.metrics` -- :class:`MetricsRegistry` of counters,
  gauges and fixed-bucket histograms with JSON/CSV snapshots, layered on
  top of the paper-figure ``StatsRegistry``.
* :mod:`repro.obs.flight` -- the per-core barrier flight recorder dumped
  into deadlock and watchdog-failover reports.
* :mod:`repro.obs.perfetto` / :mod:`repro.obs.vcd` -- Chrome
  trace-event/Perfetto JSON and VCD waveform exporters.
* :class:`Observability` -- the bundle a :class:`~repro.chip.cmp.CMP`
  threads through the engine and all device layers.

See ``docs/observability.md`` for the event schema and exporter formats.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from .events import (ALL_KINDS, FLIGHT_KINDS, TraceEvent)
from .flight import DEFAULT_DEPTH, FlightRecorder
from .metrics import (DEFAULT_EDGES, Counter, Gauge, Histogram,
                      MetricsRegistry)
from .observability import NULL_OBS, Observability
from .perfetto import to_perfetto, validate_perfetto, write_perfetto
from .tracer import DEFAULT_CAPACITY, NULL_TRACER, RingTracer, Tracer
from .vcd import parse_vcd, rise_times, to_vcd, write_vcd

__all__ = [
    "TraceEvent", "ALL_KINDS", "FLIGHT_KINDS",
    "Tracer", "RingTracer", "NULL_TRACER", "DEFAULT_CAPACITY",
    "MetricsRegistry", "Counter", "Gauge", "Histogram", "DEFAULT_EDGES",
    "FlightRecorder", "DEFAULT_DEPTH",
    "Observability", "NULL_OBS",
    "to_perfetto", "write_perfetto", "validate_perfetto",
    "to_vcd", "write_vcd", "parse_vcd", "rise_times",
    "write_jsonl",
]


def write_jsonl(trace: Iterable[TraceEvent], path: str | Path) -> int:
    """Write one JSON object per event; returns the number written."""
    n = 0
    with Path(path).open("w") as fh:
        for e in trace:
            fh.write(json.dumps(e.to_dict(), sort_keys=True) + "\n")
            n += 1
    return n
