"""Model <-> simulator conformance: concretize, replay, export, lift.

The two directions of the bridge are exercised end to end: a canonical
counterexample concretizes to per-cycle schedules that reproduce the
violation on the *real* :class:`GLineBarrierNetwork` (abstract ->
concrete), and a recorded simulator trace replays through the model
with identical release cycles (concrete -> abstract, refinement).
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.common.params import GLineConfig
from repro.common.stats import StatsRegistry
from repro.gline.network import GLineBarrierNetwork
from repro.obs import Observability, RingTracer
from repro.sim.engine import Engine
from repro.verify import (GLBarrierModel, concretize, explore,
                          export_counterexample, get_scenario,
                          lift_perfetto, lift_trace, replay_on_simulator)

_spec = importlib.util.spec_from_file_location(
    "validate_trace",
    Path(__file__).resolve().parents[2] / "scripts" / "validate_trace.py")
validate_trace = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(validate_trace)
check_counterexample = validate_trace.check_counterexample


def _violating_model(mutation="mh-early-flag", rows=2, cols=2):
    model = GLBarrierModel(rows, cols, mutation=mutation)
    result = explore(model)
    assert result.violation is not None
    return model, result.violation


@pytest.mark.parametrize("mutation", ["mh-early-flag", "mv-early-done"])
def test_mutation_counterexample_confirms_on_simulator(mutation):
    model, cex = _violating_model(mutation)
    conc = concretize(model, cex.action_indices)
    assert conc.violating
    assert any(conc.schedules), "counterexample with no arrivals"
    replay = replay_on_simulator(2, 2, conc.schedules, mutation=mutation)
    assert replay.confirmed, replay.summary()
    core, cycle = replay.early_releases[0]
    # The violation the model predicts is the one hardware exhibits: the
    # released core resumed while some core had strictly fewer arrivals.
    assert 0 <= core < 4 and cycle <= len(conc.schedules) + 8


@pytest.mark.parametrize("shape,scenario,mutation,census", [
    pytest.param((3, 3), "fault-free", "mv-early-done", (204, 3984),
                 id="3x3-mv-early-done"),
    pytest.param((3, 4), "fault-free", "mh-early-flag", (567, 20137),
                 id="3x4-mh-early-flag"),
    pytest.param((3, 3), "miscount-row-tx-unhardened", None, (443, 10707),
                 id="3x3-miscount-row-tx-unhardened"),
])
def test_three_row_counterexample_confirms_on_simulator(shape, scenario,
                                                        mutation, census):
    """On three or more rows the key also sorts rows 1..R-1, so the
    concrete schedule must name the cores of the rows the path really
    drove, not of their canonical positions."""
    rows, cols = shape
    scenario = get_scenario(scenario)
    model = GLBarrierModel(rows, cols, scenario=scenario,
                           mutation=mutation)
    result = explore(model)
    assert (result.states, result.transitions) == census
    assert result.violation is not None
    assert result.violation.prop == "safety"
    conc = concretize(model, result.violation.action_indices)
    assert conc.prop == result.violation.prop
    replay = replay_on_simulator(rows, cols, conc.schedules,
                                 scenario=scenario, mutation=mutation,
                                 glitches=conc.glitches)
    assert replay.confirmed, replay.summary()


def test_safe_schedule_does_not_confirm():
    """Concretizing a non-violating path replays without early release
    -- the detector itself does not cry wolf."""
    replay = replay_on_simulator(2, 2, [[0, 1, 2, 3]])
    assert not replay.confirmed
    assert len(replay.releases) == 4
    assert "no early release" in replay.summary()


def test_export_roundtrip_validates(tmp_path):
    model, cex = _violating_model("mh-early-flag")
    conc = concretize(model, cex.action_indices)
    replay = replay_on_simulator(2, 2, conc.schedules,
                                 mutation="mh-early-flag")
    paths = export_counterexample(
        replay, tmp_path / "cex",
        {"property": cex.prop, "message": cex.message})
    # The validator script audits the stamped artifact...
    print(check_counterexample(tmp_path / "cex.perfetto.json"))
    doc = json.loads((tmp_path / "cex.perfetto.json").read_text())
    meta = doc["otherData"]["verify"]
    assert meta["mutation"] == "mh-early-flag"
    assert meta["confirmed"] is True
    assert meta["property"] == "safety"
    # ...and the VCD companion exists and names G-line signals.
    vcd = (tmp_path / "cex.vcd").read_text()
    assert "$enddefinitions" in vcd and "gline" in vcd
    assert set(paths) == {"perfetto", "vcd"}
    # The exported document lifts back into the model and the lift
    # reports the same divergence the replay confirmed.
    lifted = lift_perfetto(doc, 2, 2, mutation="mh-early-flag")
    assert lifted.trace_releases, "export lost the release instants"


def _record_real_trace(rows, cols, schedules):
    engine = Engine()
    tracer = RingTracer(capacity=65536)
    net = GLineBarrierNetwork(
        engine, StatsRegistry(rows * cols), rows, cols,
        GLineConfig(barreg_write_cycles=2))
    net.set_obs(Observability(tracer=tracer))
    for t, cores in enumerate(schedules):
        for cid in cores:
            engine.schedule_at(t, lambda c=cid: net.arrive(c, None))
    engine.run()
    return list(tracer)


def test_real_trace_refines_model():
    """A 2x3 network run over 3 episodes lifts into the model with
    matching release cycles -- even at a nonzero write latency, because
    arrival timestamps are visibility cycles."""
    rows, cols, n = 2, 3, 6
    schedules = [[] for _ in range(40)]
    for ep, base in enumerate([0, 14, 28]):
        for cid in range(n):
            schedules[base + (cid * (ep + 1)) % 5].append(cid)
    events = _record_real_trace(rows, cols, schedules)
    lifted = lift_trace(events, rows, cols)
    assert lifted.ok, lifted.mismatches
    assert lifted.episodes == 3
    assert sum(lifted.trace_releases.values()) == 3 * n
    assert lifted.model_releases == lifted.trace_releases
    assert "refines" in lifted.summary()


def test_lift_flags_forged_release():
    """Tampering with the recorded stream (a release the hardware never
    earned) must break refinement."""
    events = _record_real_trace(2, 2, [[0, 1, 2, 3]])
    release = next(e for e in events if e.kind == "gline.release")
    forged = events + [type(release)(time=release.time + 7,
                                     source=release.source,
                                     kind=release.kind,
                                     detail={"cores": 4, "release":
                                             release.time + 8,
                                             "remaining": 0})]
    lifted = lift_trace(forged, 2, 2)
    assert not lifted.ok
    assert any("trace records 4" in m for m in lifted.mismatches)


def test_replay_under_hardened_fault_scenario_stays_safe():
    """The stuck-line scenario that the model proves safe must also
    replay safely: the watchdog retries or quarantines, and nobody is
    released early."""
    scenario = get_scenario("stuck-row-tx-low")
    replay = replay_on_simulator(
        2, 4, [[0, 1, 2, 3, 4, 5, 6, 7]], scenario=scenario)
    assert not replay.confirmed
    assert len(replay.releases) == 8
