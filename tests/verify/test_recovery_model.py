"""Recovery FSM verification: properties, mutation catch, replay.

The model checker proves the self-healing extension safe -- including
the two recovery-only properties ``bounded-recovery`` (a degraded
network always has a probe pending) and ``flap-bound`` (re-admission
flaps never exceed the budget) -- and the planted ``probation-skip-
shadow`` mutation is caught, concretized, and confirmed on the real
simulator, closing the model <-> hardware loop for the recovery path.
"""

import pytest

from repro.verify import (GLBarrierModel, P_FLAP, P_RECOVERY, PROVED,
                          SKIPPED, VIOLATED, concretize, expectation_verdict,
                          explore, get_scenario, replay_on_simulator)

RECOVERY_SCENARIOS = ["intermittent-row-tx-recovers",
                      "flaky-row-tx-retires", "probation-glitch"]


@pytest.mark.parametrize("name", RECOVERY_SCENARIOS)
def test_recovery_scenarios_prove_all_properties(name):
    scenario = get_scenario(name)
    result = explore(GLBarrierModel(2, 2, scenario=scenario))
    assert result.ok, f"{name}: {result.violation}"
    assert result.properties["safety"] == PROVED
    assert result.properties["exactly-once"] == PROVED
    assert result.properties["deadlock-freedom"] == PROVED
    assert result.properties[P_RECOVERY] == PROVED
    assert result.properties[P_FLAP] == PROVED
    matched, why = expectation_verdict(scenario, result)
    assert matched, why


def test_recovery_properties_absent_without_recovery():
    result = explore(GLBarrierModel(2, 2))
    assert P_RECOVERY not in result.properties
    assert P_FLAP not in result.properties


def test_recovery_scenarios_scale_to_2x4():
    scenario = get_scenario("intermittent-row-tx-recovers")
    result = explore(GLBarrierModel(2, 4, scenario=scenario))
    assert result.ok and result.properties[P_RECOVERY] == PROVED
    assert result.properties["four-cycle"] == SKIPPED


def test_shadow_mutation_caught_and_confirmed_on_simulator():
    """The full loop: explore finds the safety violation the skipped
    shadow check allows, concretize lifts it to per-cycle schedules plus
    glitch cycles, and the real network -- with the same mutation --
    reproduces the early release.  The un-mutated network under the
    *same* schedule withholds the release: the shadow check is exactly
    the mechanism standing between the glitch and the violation."""
    scenario = get_scenario("probation-glitch")
    model = GLBarrierModel(2, 2, scenario=scenario,
                           mutation="probation-skip-shadow")
    result = explore(model)
    assert result.violation is not None
    assert result.violation.prop == "safety"

    conc = concretize(model, result.violation.action_indices)
    assert conc.violating
    assert conc.glitches, "counterexample must use the planted glitch"

    mutated = replay_on_simulator(2, 2, conc.schedules,
                                  scenario=scenario,
                                  mutation="probation-skip-shadow",
                                  glitches=conc.glitches)
    assert mutated.confirmed, mutated.summary()

    guarded = replay_on_simulator(2, 2, conc.schedules,
                                  scenario=scenario,
                                  glitches=conc.glitches)
    assert not guarded.confirmed, guarded.summary()


def test_healthy_glitch_releases_early_outside_probation():
    """What ``repro.gline.recovery``'s docstring says, stated by the
    checker: a hardened network in HEALTHY runs no shadow cross-check,
    so a gather glitch that lands row 0's count exactly on target
    releases the chip with a slave missing.  The counterexample replays
    on the real network and releases early there too."""
    scenario = get_scenario("healthy-glitch")
    model = GLBarrierModel(2, 2, scenario=scenario)
    result = explore(model)
    assert (result.states, result.transitions) == (99, 366)
    assert result.properties["safety"] == VIOLATED
    matched, why = expectation_verdict(scenario, result)
    assert matched, why

    conc = concretize(model, result.violation.action_indices)
    assert conc.violating and conc.glitches
    replay = replay_on_simulator(2, 2, conc.schedules, scenario=scenario,
                                 glitches=conc.glitches)
    assert replay.confirmed
    assert "EARLY RELEASE CONFIRMED" in replay.summary()
