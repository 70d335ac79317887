"""Conformance bridge between the abstract model and the real simulator.

Two directions close the refinement loop:

* **Concretize + replay** -- a model counterexample is a path of action
  indices; its states keep their core labels, so :func:`concretize`
  reads per-cycle schedules of concrete mesh core ids off the path's
  actions, and :func:`replay_on_simulator` drives a real
  :class:`~repro.gline.network.GLineBarrierNetwork` (same scenario fault,
  same mutation, ``barreg_write_cycles=0`` so model step *i* is engine
  cycle *i*) with those schedules, confirming that the abstract violation
  manifests on the reference implementation.  The replay runs under a
  :class:`~repro.obs.RingTracer`, so the confirmed counterexample exports
  to Perfetto/VCD via :func:`export_counterexample` for post-mortem
  inspection in the same viewers as any other repro trace.

* **Lift** -- :func:`lift_trace` runs the opposite check: given an
  observability event stream from a *real* simulation, it re-executes the
  model from the recorded ``gline.arrive`` times and demands the model
  release the same number of cores on the same cycles as the recorded
  ``gline.release`` events.  Any divergence
  is a refinement bug in either the model or the network and is reported
  cycle-by-cycle.  :func:`lift_perfetto` reconstructs the event stream
  from an exported Perfetto document first.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..common.params import GLineConfig
from ..common.stats import StatsRegistry
from ..faults import FAILOVER
from ..gline.network import GLineBarrierNetwork
from ..gline.recovery import PROBATION
from ..obs import Observability, RingTracer, to_perfetto, write_vcd
from ..obs import events as obs_ev
from ..obs.events import TraceEvent
from ..sim.engine import Engine
from .explore import replay_actions
from .model import GLBarrierModel, PropertyViolation
from .scenarios import (FAULT_FREE, FaultScenario, Mutation,
                        ScenarioInjector, get_mutation)

#: Engine-cycle slack appended after the last scheduled arrival when
#: replaying: enough for the deepest gather/release plus every watchdog
#: retry round on a 7x7 mesh.
REPLAY_HORIZON_SLACK = 4096


# ---------------------------------------------------------------------- #
# Abstract -> concrete: schedules of mesh core ids
# ---------------------------------------------------------------------- #
@dataclass
class ConcretePath:
    """A counterexample rewritten as per-step concrete arrival schedules.

    ``schedules[i]`` lists the mesh core ids (``row * cols + col``, col 0
    being the row master) whose arrivals land at model step *i*; a path
    that ends in a violation carries it in :attr:`prop`/:attr:`message`.
    """

    schedules: List[List[int]]
    prop: Optional[str] = None
    message: Optional[str] = None
    #: Model steps at which the path fired the armed wire glitch.
    glitches: List[int] = field(default_factory=list)

    @property
    def violating(self) -> bool:
        return self.prop is not None

    def to_dict(self) -> Dict[str, object]:
        return {"schedules": [list(s) for s in self.schedules],
                "property": self.prop, "message": self.message,
                "glitches": list(self.glitches)}


def concretize(model: GLBarrierModel,
               action_indices: Sequence[int]) -> ConcretePath:
    """Rewrite an action path as concrete per-step schedules.

    Model states keep their core labels and each action names the cores
    that arrive, so the schedules are read off :func:`replay_actions`;
    a :class:`~repro.verify.model.PropertyViolation` raised by the final
    step is captured."""
    _, actions, violation = replay_actions(model, action_indices)
    return ConcretePath(
        schedules=[list(cores) for cores, _ in actions],
        prop=violation.prop if violation is not None else None,
        message=violation.message if violation is not None else None,
        glitches=[n for n, (_, glitch) in enumerate(actions) if glitch])


# ---------------------------------------------------------------------- #
# Replay on the reference simulator
# ---------------------------------------------------------------------- #
@dataclass
class ReplayResult:
    """Outcome of driving the real network with a concrete schedule."""

    rows: int
    cols: int
    scenario: str
    mutation: Optional[str]
    schedules: List[List[int]]
    #: (core id, resume cycle, via-failover) in resume order.
    releases: List[Tuple[int, int, bool]]
    #: Hardware releases that beat a still-missing arrival (the concrete
    #: safety violations); empty on a conforming safe replay.
    early_releases: List[Tuple[int, int]]
    quarantined: bool
    #: Captured observability stream (Perfetto/VCD export source).
    events: List[TraceEvent] = field(default_factory=list)

    @property
    def confirmed(self) -> bool:
        """True when the simulator exhibited the violation in hardware."""
        return bool(self.early_releases)

    def summary(self) -> str:
        n_hw = sum(1 for _, _, fo in self.releases if not fo)
        n_fo = len(self.releases) - n_hw
        parts = [f"{self.rows}x{self.cols} replay: "
                 f"{sum(map(len, self.schedules))} arrivals over "
                 f"{len(self.schedules)} cycles, {n_hw} hardware releases"
                 + (f", {n_fo} failover bounces" if n_fo else "")]
        if self.early_releases:
            first = self.early_releases[0]
            parts.append(f"EARLY RELEASE CONFIRMED: core {first[0]} "
                         f"resumed at cycle {first[1]} with arrivals "
                         f"still missing")
        elif self.quarantined:
            parts.append("network quarantined (watchdog failover); no "
                         "early hardware release")
        else:
            parts.append("no early release observed")
        return "; ".join(parts)

    def to_dict(self) -> Dict[str, object]:
        return {"rows": self.rows, "cols": self.cols,
                "scenario": self.scenario, "mutation": self.mutation,
                "schedules": [list(s) for s in self.schedules],
                "releases": [list(r) for r in self.releases],
                "early_releases": [list(r) for r in self.early_releases],
                "quarantined": self.quarantined,
                "confirmed": self.confirmed}


def replay_on_simulator(rows: int, cols: int,
                        schedules: Sequence[Sequence[int]], *,
                        scenario: FaultScenario = FAULT_FREE,
                        mutation: Union[Mutation, str, None] = None,
                        glitches: Sequence[int] = (),
                        trace_capacity: Optional[int] = 65536
                        ) -> ReplayResult:
    """Drive a real ``GLineBarrierNetwork`` with concrete schedules.

    ``barreg_write_cycles=0`` makes an arrival scheduled at cycle *t*
    visible to that same cycle's tick, so model step *i* and engine
    cycle *i* coincide and release cycles compare directly: the model
    delivers a step-*t* release which the engine runs at ``t + 1``.

    A hardware release is flagged *early* when some core's scheduled
    arrival count through the release's triggering cycle is below the
    released core's episode number -- exactly the model's safety check,
    evaluated against the ground-truth schedule."""
    if isinstance(mutation, str):
        mutation = get_mutation(mutation)
    engine = Engine()
    stats = StatsRegistry(rows * cols)
    cfg = GLineConfig(barreg_write_cycles=0,
                      watchdog_budget=scenario.watchdog_budget,
                      watchdog_retries=scenario.watchdog_retries,
                      recovery_enabled=scenario.recovery,
                      recovery_probe_interval=scenario.probe_backoff,
                      recovery_backoff_factor=1,
                      recovery_max_backoff=scenario.probe_backoff,
                      recovery_probation_barriers=(
                          scenario.probation_barriers),
                      recovery_max_flaps=scenario.max_flaps,
                      recovery_max_probes=scenario.max_probes)
    net = GLineBarrierNetwork(engine, stats, rows, cols, cfg)
    if mutation is not None:
        mutation.apply_to_network(net)
    if scenario.needs_injector:
        inj = ScenarioInjector(scenario, glitch_cycles=tuple(glitches))
        inj.net = net
        net.set_injector(inj)
    if scenario.recovery and scenario.start == "probation" \
            and net.recovery is not None:
        net.recovery.state = PROBATION
        net.recovery.probation_left = scenario.probation_barriers
    tracer = RingTracer(capacity=trace_capacity)
    net.set_obs(Observability(tracer=tracer))

    releases: List[Tuple[int, int, bool]] = []

    def make_resume(cid: int):
        def resume(token: object = None) -> None:
            releases.append((cid, engine.now, token is FAILOVER))
        return resume

    for t, cores in enumerate(schedules):
        for cid in cores:
            engine.schedule_at(
                t, lambda c=cid: net.arrive(c, make_resume(c)))
    engine.run(until=len(schedules) + REPLAY_HORIZON_SLACK)

    # Ground truth: arrivals of core d visible at cycles <= t.
    def arrivals_through(d: int, t: int) -> int:
        return sum(1 for step, cores in enumerate(schedules)
                   if step <= t and d in cores)

    early: List[Tuple[int, int]] = []
    rel_count: Dict[int, int] = {}
    for cid, cycle, via_failover in releases:
        rel_count[cid] = k = rel_count.get(cid, 0) + 1
        if via_failover:
            continue    # completes over the software fallback cohort
        # The release was produced by the tick of cycle - 1 (model step
        # cycle - 1), so only arrivals visible through that cycle count.
        if any(arrivals_through(d, cycle - 1) < k
               for d in range(rows * cols)):
            early.append((cid, cycle))

    return ReplayResult(
        rows=rows, cols=cols, scenario=scenario.name,
        mutation=(mutation.name if mutation is not None else None),
        schedules=[list(s) for s in schedules],
        releases=releases, early_releases=early,
        quarantined=net.quarantined, events=list(tracer))


def export_counterexample(replay: ReplayResult,
                          prefix: Union[str, Path],
                          verify_meta: Optional[Dict[str, object]] = None
                          ) -> Dict[str, str]:
    """Write the replay's trace as ``<prefix>.perfetto.json`` and
    ``<prefix>.vcd``, stamping the verification metadata (scenario,
    mutation, schedules, verdict) under ``otherData.verify`` so
    ``scripts/validate_trace.py --counterexample`` can audit it."""
    doc = to_perfetto(replay.events)
    meta: Dict[str, object] = dict(verify_meta or {})
    meta.setdefault("scenario", replay.scenario)
    meta.setdefault("mutation", replay.mutation)
    meta.setdefault("mesh", f"{replay.rows}x{replay.cols}")
    meta.setdefault("schedules", [list(s) for s in replay.schedules])
    meta.setdefault("confirmed", replay.confirmed)
    meta.setdefault("early_releases",
                    [list(r) for r in replay.early_releases])
    doc["otherData"]["verify"] = meta
    perfetto_path = Path(f"{prefix}.perfetto.json")
    perfetto_path.write_text(
        json.dumps(doc, indent=1, sort_keys=True) + "\n")
    vcd_path = Path(f"{prefix}.vcd")
    write_vcd(replay.events, vcd_path)
    return {"perfetto": str(perfetto_path), "vcd": str(vcd_path)}


# ---------------------------------------------------------------------- #
# Concrete -> abstract: lifting real traces into model runs
# ---------------------------------------------------------------------- #
@dataclass
class LiftResult:
    """Refinement verdict for one recorded trace."""

    ok: bool
    steps: int
    episodes: int
    #: cycle -> number of cores the model released that step.
    model_releases: Dict[int, int]
    #: cycle -> number of cores the trace's GL_RELEASE events released.
    trace_releases: Dict[int, int]
    mismatches: List[str]

    def summary(self) -> str:
        verdict = "refines" if self.ok else "DIVERGES"
        return (f"trace {verdict} the model: {self.episodes} episode(s) "
                f"over {self.steps} modelled cycles, "
                f"{sum(self.trace_releases.values())} released; "
                f"{len(self.mismatches)} mismatch(es)")


def lift_trace(events: Iterable[TraceEvent], rows: int, cols: int, *,
               scenario: FaultScenario = FAULT_FREE,
               mutation: Union[Mutation, str, None] = None,
               source: Optional[str] = None) -> LiftResult:
    """Check that a recorded trace refines the model.

    Replays the trace's ``gline.arrive`` events (whose timestamps are
    bar_reg *visibility* cycles, so they transfer across
    ``barreg_write_cycles`` settings) through the model and
    compares, cycle by cycle, how many cores the model releases against
    the trace's ``gline.release`` records.  *source* restricts the lift
    to one network's events when the trace covers several."""
    arrivals: Dict[int, List[int]] = {}
    trace_rel: Dict[int, int] = {}
    for e in events:
        if source is not None and e.source != source:
            continue
        if e.kind == obs_ev.GL_ARRIVE and "core" in e.detail:
            arrivals.setdefault(e.time, []).append(int(e.detail["core"]))
        elif e.kind == obs_ev.GL_RELEASE:
            # The release was produced by the tick at e.time; the model
            # delivers it at that same step.
            trace_rel[e.time] = trace_rel.get(e.time, 0) \
                + int(e.detail.get("cores", 0))

    mismatches: List[str] = []
    if not arrivals:
        return LiftResult(ok=not trace_rel, steps=0, episodes=0,
                          model_releases={}, trace_releases=trace_rel,
                          mismatches=(["releases recorded without any "
                                       "arrivals"] if trace_rel else []))

    per_core: Dict[int, int] = {}
    for cores in arrivals.values():
        for c in cores:
            per_core[c] = per_core.get(c, 0) + 1
    episodes = max(per_core.values())

    model = GLBarrierModel(
        rows, cols, scenario=scenario,
        mutation=(mutation.name if isinstance(mutation, Mutation)
                  else mutation),
        episodes=min(max(episodes, 1), 16))
    state = model.initial()
    t0 = min(arrivals)
    t_end = max(max(arrivals), max(trace_rel, default=t0))
    horizon = t_end + REPLAY_HORIZON_SLACK

    model_rel: Dict[int, int] = {}
    t = t0
    while t <= horizon:
        before = model.releases(state)
        try:
            state = model.step(state, (tuple(arrivals.get(t, ())), False))
        except PropertyViolation as exc:
            mismatches.append(f"model violation at cycle {t}: "
                              f"{exc.prop}: {exc.message}")
            break
        except ValueError as exc:
            mismatches.append(f"trace arrival not admissible at cycle "
                              f"{t}: {exc}")
            break
        released = sum(1 for rb, ra in zip(before, model.releases(state))
                       if ra > rb)
        if released:
            model_rel[t] = released
        if model.is_complete(state) and t >= max(arrivals):
            break
        t += 1

    for cyc in sorted(set(model_rel) | set(trace_rel)):
        m, r = model_rel.get(cyc, 0), trace_rel.get(cyc, 0)
        if m != r:
            mismatches.append(f"cycle {cyc}: model releases {m} "
                              f"core(s), trace records {r}")

    return LiftResult(ok=not mismatches, steps=max(0, t - t0 + 1),
                      episodes=episodes, model_releases=model_rel,
                      trace_releases=trace_rel, mismatches=mismatches)


def lift_perfetto(doc: Dict[str, object], rows: int, cols: int, *,
                  scenario: FaultScenario = FAULT_FREE,
                  mutation: Union[Mutation, str, None] = None,
                  source: Optional[str] = None) -> LiftResult:
    """Lift an exported Perfetto document (see :func:`lift_trace`).

    Reconstructs the event stream from the document's ``gline.*``
    instants, resolving each instant's track back to its source name via
    the thread-name metadata records."""
    raw = doc.get("traceEvents")
    if not isinstance(raw, list):
        raise ValueError("not a trace document: missing 'traceEvents'")
    names: Dict[Tuple[int, int], str] = {}
    for e in raw:
        if isinstance(e, dict) and e.get("ph") == "M" \
                and e.get("name") == "thread_name":
            names[(e["pid"], e["tid"])] = str(e["args"]["name"])
    events: List[TraceEvent] = []
    for e in raw:
        if not isinstance(e, dict) or e.get("ph") != "i":
            continue
        kind = e.get("name", "")
        if kind not in (obs_ev.GL_ARRIVE, obs_ev.GL_RELEASE):
            continue
        src = names.get((e.get("pid"), e.get("tid")), "")
        events.append(TraceEvent(time=int(e["ts"]), source=src,
                                 kind=str(kind),
                                 detail=dict(e.get("args", {}))))
    return lift_trace(events, rows, cols, scenario=scenario,
                      mutation=mutation, source=source)
