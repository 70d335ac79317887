"""The typed trace-event schema shared by every instrumented layer.

A :class:`TraceEvent` is one timestamped observation: *when* (integer
cycle), *where* (the component or wire name), *what* (a dotted ``kind``
from the vocabulary below) and free-form structured ``detail``.  Every
``detail`` value is a JSON primitive, so an event stream can be exported
losslessly (JSONL, Perfetto, VCD) without per-exporter conversion.

Kinds are namespaced by layer (``engine.*``, ``core.*``, ``gline.*``,
``noc.*``, ``l1.*``, ``dir.*``); exporters dispatch on the prefix to
assign tracks.  :data:`FLIGHT_KINDS` is the barrier-relevant subset the
flight recorder keeps per core -- cheap enough to stay on for a whole run
and exactly what a deadlock or failover post-mortem needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

# ---------------------------------------------------------------------- #
# Event-kind vocabulary
# ---------------------------------------------------------------------- #
# Engine lifecycle.
ENGINE_RUN_BEGIN = "engine.run.begin"
ENGINE_RUN_END = "engine.run.end"

# Core-side barrier lifecycle (sources: "core<N>").
CORE_BARRIER_ENTER = "core.barrier.enter"
CORE_BARRIER_RESUME = "core.barrier.resume"
CORE_STRAGGLER = "core.straggler"
CORE_FAILSTOP = "core.failstop"

# G-line barrier network (sources: network or wire names).
GL_ARRIVE = "gline.arrive"                # bar_reg write became visible
GL_WIRE = "gline.wire"                    # one wire's sampled level/count
GL_FSM = "gline.fsm"                      # master-controller register state
GL_RELEASE = "gline.release"              # cores released this cycle
GL_EPISODE = "gline.episode"              # one completed barrier episode
GL_EARLY_RELEASE = "gline.early_release"  # released with a core missing
GL_WATCHDOG_RETRY = "gline.watchdog.retry"
GL_WATCHDOG_FAILOVER = "gline.watchdog.failover"
GL_PROBE = "gline.recovery.probe"          # idle-cycle wire probe episode
GL_READMIT = "gline.recovery.readmit"      # probation entry / healthy again
GL_REDEGRADE = "gline.recovery.redegrade"  # probation tripped; degraded

# G-line collective engine (repro.collectives; sources: network names).
GL_REDUCE_ARRIVE = "gline.reduce.arrive"      # operand latched (col_reg)
GL_REDUCE_START = "gline.reduce.start"        # episode opened (kind, width)
GL_REDUCE_ROUND = "gline.reduce.round"        # one clocked fabric cycle
GL_REDUCE_RESULT = "gline.reduce.result"      # a core got its result
GL_REDUCE_FAILOVER = "gline.reduce.failover"  # episode bounced to software

# Counting-line integrity ladder (repro.gline.integrity wiring).
GL_INTEGRITY_FAIL = "gline.integrity.fail"          # corrupted round seen
GL_INTEGRITY_RETRY = "gline.integrity.retry"        # round retried in-wire
GL_INTEGRITY_ESCALATE = "gline.integrity.escalate"  # whole-op retry rung
GL_INTEGRITY_FAILOVER = "gline.integrity.failover"  # ladder gave up

# Data NoC (source: "noc" / "vct").
NOC_SEND = "noc.send"
NOC_DELIVER = "noc.deliver"

# Memory hierarchy (sources: "l1_<t>" / "home<t>").
L1_MISS = "l1.miss"
L1_FILL = "l1.fill"
L1_EVICT = "l1.evict"
DIR_MSG = "dir.msg"

#: Every kind the built-in instrumentation emits.
ALL_KINDS = frozenset({
    ENGINE_RUN_BEGIN, ENGINE_RUN_END,
    CORE_BARRIER_ENTER, CORE_BARRIER_RESUME, CORE_STRAGGLER, CORE_FAILSTOP,
    GL_ARRIVE, GL_WIRE, GL_FSM, GL_RELEASE, GL_EPISODE, GL_EARLY_RELEASE,
    GL_WATCHDOG_RETRY, GL_WATCHDOG_FAILOVER,
    GL_PROBE, GL_READMIT, GL_REDEGRADE,
    GL_REDUCE_ARRIVE, GL_REDUCE_START, GL_REDUCE_ROUND, GL_REDUCE_RESULT,
    GL_REDUCE_FAILOVER,
    GL_INTEGRITY_FAIL, GL_INTEGRITY_RETRY, GL_INTEGRITY_ESCALATE,
    GL_INTEGRITY_FAILOVER,
    NOC_SEND, NOC_DELIVER,
    L1_MISS, L1_FILL, L1_EVICT, DIR_MSG,
})

#: Barrier-relevant kinds the flight recorder keeps per core.
FLIGHT_KINDS = frozenset({
    CORE_BARRIER_ENTER, CORE_BARRIER_RESUME, CORE_STRAGGLER, CORE_FAILSTOP,
    GL_ARRIVE, GL_RELEASE, GL_WATCHDOG_RETRY, GL_WATCHDOG_FAILOVER,
    GL_READMIT, GL_REDEGRADE,
    GL_REDUCE_ARRIVE, GL_REDUCE_RESULT, GL_REDUCE_FAILOVER,
})


@dataclass(frozen=True)
class TraceEvent:
    """One timestamped observation from an instrumented component."""

    time: int
    source: str
    kind: str
    detail: dict[str, Any]

    def to_dict(self) -> dict:
        """JSON-ready form (the JSONL export line format)."""
        return {"time": self.time, "source": self.source,
                "kind": self.kind, "detail": self.detail}

    def __str__(self) -> str:
        if not self.detail:
            return f"@{self.time} {self.source} {self.kind}"
        fields = " ".join(f"{k}={v}" for k, v in self.detail.items())
        return f"@{self.time} {self.source} {self.kind} [{fields}]"
