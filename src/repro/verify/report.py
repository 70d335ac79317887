"""Rendering verification outcomes for humans, CI greps and artifacts.

The text report is line-oriented and stable on purpose: the CI
``verify-smoke`` job pins golden state-space sizes by grepping
``states=``/``transitions=`` lines, and a violated property always
renders as ``property <name>: VIOLATED`` so a single grep distinguishes
a proof from a refutation.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .conformance import ConcretePath, ReplayResult
from .explore import (ALL_PROPERTIES, Counterexample, ExploreResult,
                      PROVED, SKIPPED)
from .model import GLBarrierModel
from .scenarios import EXPECT_FAILOVER, EXPECT_VIOLATION, FaultScenario


def _effective_scenario(model: GLBarrierModel) -> FaultScenario:
    """The scenario whose expectation applies: an active mutation turns
    any ride-along scenario into a must-refute run."""
    if model.mutation is not None \
            and model.scenario.expect != EXPECT_VIOLATION:
        from dataclasses import replace
        return replace(model.scenario, expect=EXPECT_VIOLATION)
    return model.scenario


def render_report(model: GLBarrierModel, result: ExploreResult) -> str:
    """The ``repro verify`` console report for one exploration."""
    lines: List[str] = []
    mut = model.mutation.name if model.mutation is not None else "none"
    lines.append(f"model: {model.rows}x{model.cols} mesh, scenario "
                 f"{model.scenario.name}, mutation {mut}, "
                 f"{model.episodes} episode(s)")
    lines.append(f"states={result.states} "
                 f"transitions={result.transitions} "
                 f"capped={str(result.capped).lower()}")
    if result.max_completion_ticks:
        lines.append(f"max completion latency: "
                     f"{result.max_completion_ticks} tick(s) "
                     f"(bound {model.completion_bound})")
    extra = tuple(p for p in result.properties if p not in ALL_PROPERTIES)
    for prop in ALL_PROPERTIES + extra:
        verdict = result.properties.get(prop, SKIPPED)
        lines.append(f"property {prop}: {verdict.upper()}")
    if result.violation is not None:
        cex = result.violation
        lines.append(f"counterexample ({len(cex.action_indices)} "
                     f"step(s)): {cex.message}")
    effective = _effective_scenario(model)
    ok, why = expectation_verdict(effective, result)
    lines.append(f"expectation [{effective.expect}]: "
                 f"{'MATCHED' if ok else 'NOT MATCHED'} -- {why}")
    return "\n".join(lines)


def expectation_verdict(scenario: FaultScenario,
                        result: ExploreResult) -> "tuple[bool, str]":
    """Does the outcome match what the scenario registry promised?

    A *mutation* run is expected to violate regardless of the (usually
    fault-free) scenario it rides on, so callers pass the registry
    expectation they actually want checked -- the CLI overrides to
    ``violation`` whenever a mutation is active."""
    verdicts = result.properties
    clean = all(v in (PROVED, SKIPPED) for v in verdicts.values())
    if scenario.expect == EXPECT_VIOLATION:
        if result.violation is not None:
            return True, ("checker refuted the property as the scenario "
                          "demands")
        return False, "expected a violation but every property held"
    # PASS and FAILOVER both require the full proof; failover scenarios
    # just achieve it through watchdog/quarantine rather than clean runs.
    label = ("safety preserved through watchdog failover"
             if scenario.expect == EXPECT_FAILOVER
             else "all properties proved")
    if result.capped:
        return False, "exploration capped before closure"
    if clean and result.violation is None:
        return True, label
    return False, "a property failed that the scenario expects to hold"


def render_counterexample(cex: Counterexample, path: ConcretePath) -> str:
    """Humanize a counterexample as a per-cycle schedule of core ids;
    *path* is its concrete walk (``concretize``)."""
    lines = [f"violated property: {cex.prop}",
             f"  {cex.message}",
             "concrete schedule (core id = row * cols + col):"]
    for t, cores in enumerate(path.schedules):
        what = ("cores " + ", ".join(map(str, cores)) + " arrive"
                if cores else "(no arrivals; network ticks)")
        lines.append(f"  cycle {t}: {what}")
    return "\n".join(lines)


def report_dict(model: GLBarrierModel, result: ExploreResult,
                path: Optional[ConcretePath] = None,
                replay: Optional[ReplayResult] = None
                ) -> Dict[str, object]:
    """JSON artifact for one verification run (CI uploads, tooling)."""
    out: Dict[str, object] = {
        "kind": "verify-report",
        "model": model.fingerprint(),
        "states": result.states,
        "transitions": result.transitions,
        "capped": result.capped,
        "max_completion_ticks": result.max_completion_ticks,
        "completion_bound": model.completion_bound,
        "properties": dict(result.properties),
        "violation": (result.violation.to_dict()
                      if result.violation is not None else None),
    }
    effective = _effective_scenario(model)
    ok, why = expectation_verdict(effective, result)
    out["expectation"] = {"expect": effective.expect,
                          "matched": ok, "why": why}
    if path is not None:
        out["concrete_path"] = path.to_dict()
    if replay is not None:
        out["replay"] = replay.to_dict()
    return out


__all__ = ["render_report", "render_counterexample", "report_dict",
           "expectation_verdict"]
