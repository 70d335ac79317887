"""Exhaustive exploration: golden state-space sizes and proofs.

The BFS is fully deterministic, so exact state/transition counts are
pinned here (and re-pinned in CI's verify-smoke job).  A count drift
means the transition system changed -- deliberate model edits must
update these numbers alongside a note in docs/verification.md.
"""

import pytest

from repro.verify import (ALL_PROPERTIES, GLBarrierModel, NOT_PROVED,
                          PROVED, VIOLATED, explore, replay_actions)

#: (rows, cols, episodes) -> (states, transitions).  The 3x3
#: two-episode model is the one ``benchmarks/e2e``'s ``sweep`` explores.
GOLDEN = {
    (2, 2, 1): (28, 87),
    (1, 4, 1): (10, 24),
    (2, 4, 1): (84, 900),
    (3, 3, 1): (199, 3981),
    (4, 4, 1): (1488, 234829),
    (2, 2, 2): (55, 174),
    (1, 4, 2): (19, 48),
    (3, 3, 2): (397, 7962),
}


@pytest.mark.parametrize("shape,golden", sorted(GOLDEN.items()))
def test_fault_free_proofs_and_golden_counts(shape, golden):
    rows, cols, episodes = shape
    result = explore(GLBarrierModel(rows, cols, episodes=episodes))
    assert result.ok
    assert (result.states, result.transitions) == golden
    for prop in ALL_PROPERTIES:
        assert result.properties[prop] == PROVED
    assert result.max_completion_ticks <= \
        GLBarrierModel(rows, cols).completion_bound


def test_exploration_is_deterministic():
    a = explore(GLBarrierModel(2, 3))
    b = explore(GLBarrierModel(2, 3))
    assert (a.states, a.transitions) == (b.states, b.transitions)
    assert a.properties == b.properties


def test_state_cap_downgrades_proofs():
    result = explore(GLBarrierModel(3, 3), max_states=20)
    assert result.capped
    assert not result.ok
    assert result.violation is None
    for prop in ALL_PROPERTIES:
        assert result.properties[prop] == NOT_PROVED


def test_mutation_violation_has_replayable_path():
    model = GLBarrierModel(2, 2, mutation="mh-early-flag")
    result = explore(model)
    assert result.violation is not None
    assert result.properties["safety"] == VIOLATED
    cex = result.violation
    states, actions, violation = replay_actions(model,
                                                cex.action_indices)
    assert violation is not None
    assert violation.prop == cex.prop
    assert len(states) == len(actions) == len(cex.action_indices)
    # Round-trips through the cache/IPC dict form.
    assert cex.to_dict()["action_indices"] == cex.action_indices


def test_symmetry_reduction_only_shrinks_the_census():
    """The symmetric and asymmetric state spaces prove the same
    properties; symmetry only folds states."""
    sym = explore(GLBarrierModel(2, 3))
    asym = explore(GLBarrierModel(2, 3, symmetric=False))
    assert sym.ok and asym.ok
    assert sym.states <= asym.states
    assert sym.properties == asym.properties


def test_replay_actions_rejects_out_of_range_index():
    model = GLBarrierModel(2, 2)
    with pytest.raises(ValueError):
        replay_actions(model, [10 ** 6])
