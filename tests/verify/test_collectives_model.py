"""Model checking of the collective fabric: the three properties on
every mesh up to 4x4, plus planted mutations caught, concretized and
confirmed by replay on the real simulator."""

import pytest

from repro.collectives import ops
from repro.verify import (
    COLLECTIVE_PROPERTIES, CollectiveModel, PROVED, VIOLATED,
    P_COLL_TERMINATION, P_COLL_VALUE, explore_collective,
    replay_collective)

ALL_MESHES = [(r, c) for r in range(1, 5) for c in range(1, 5)]
#: Kind rotated per mesh so every kind is proved on several meshes
#: while the big meshes stay single-kind (state spaces are ~50k there).
ROTATION = ("sum", "min", "max", "any", "all", "vote", "bcast")


def _mesh_width(rows, cols):
    # Keep 4-dimension meshes at width 1 (their interleaving space
    # dominates anyway); smaller meshes get discriminating operands.
    return 1 if max(rows, cols) >= 4 else 2


@pytest.mark.parametrize("rows,cols", ALL_MESHES)
def test_proves_all_meshes_to_4x4(rows, cols):
    kind = ROTATION[(rows * 4 + cols) % len(ROTATION)]
    model = CollectiveModel(rows, cols, kind,
                            width=_mesh_width(rows, cols))
    result = explore_collective(model, max_states=1_000_000)
    assert not result.capped
    assert result.verdicts == {p: PROVED for p in COLLECTIVE_PROPERTIES}
    assert result.counterexample is None
    assert result.states > 0 and result.transitions > 0


@pytest.mark.parametrize("kind", ops.KINDS)
def test_all_kinds_prove_on_2x3(kind):
    model = CollectiveModel(2, 3, kind, width=2)
    result = explore_collective(model)
    assert result.ok, result.counterexample


def test_explicit_values_and_reference():
    model = CollectiveModel(2, 2, "sum", width=4,
                            values=[3, 5, 7, 11])
    assert model.reference == 26
    assert explore_collective(model).ok


#: The checker's census: (rows, cols, kind, model options) -> (states,
#: transitions, violated property or None).  The fabric the checker
#: drives is the simulator's, so these move only if the fabric's
#: reachable states do; the stuck-high release line (a violation, found
#: after the same 361 transitions) pins what a forced wire does to the
#: stage it crosses.
CENSUS = [
    ((2, 4, "sum", dict(width=2)), (540, 2846, None)),
    ((2, 3, "min", dict(width=2)), (288, 1523, None)),
    ((3, 3, "max", dict(width=2)), (5616, 27683, None)),
    ((2, 2, "sum", dict(width=2, integrity="echo")), (156, 1681, None)),
    ((2, 2, "sum", dict(width=2, integrity="echo", adversary_budget=1)),
     (852, 11995, None)),
    ((2, 3, "sum", dict(width=2, stuck={"relH0": 1})),
     (0, 361, P_COLL_VALUE)),
]


def test_state_counts_are_deterministic():
    a = explore_collective(CollectiveModel(2, 2, "sum", width=2))
    b = explore_collective(CollectiveModel(2, 2, "sum", width=2))
    assert (a.states, a.transitions) == (b.states, b.transitions)
    for (rows, cols, kind, options), pinned in CENSUS:
        result = explore_collective(
            CollectiveModel(rows, cols, kind, **options))
        ce = result.counterexample
        assert (result.states, result.transitions,
                ce.prop if ce is not None else None) == pinned, \
            (rows, cols, kind, options)


# ---------------------------------------------------------------------- #
# Planted mutations: caught, concretized, confirmed by replay.
# ---------------------------------------------------------------------- #
MUTATION_CASES = [
    ("master-skip-own", 2, 2, "sum", 2),
    ("slave-double-pulse", 2, 3, "sum", 2),
    ("bcast-drop-msb", 2, 2, "max", 2),
]


@pytest.mark.parametrize("mutation,rows,cols,kind,width", MUTATION_CASES)
def test_mutation_caught_and_replay_confirms(mutation, rows, cols, kind,
                                             width):
    model = CollectiveModel(rows, cols, kind, width=width,
                            mutation=mutation)
    result = explore_collective(model)
    assert not result.ok
    ce = result.counterexample
    assert ce is not None
    assert VIOLATED in result.verdicts.values()
    assert ce.schedule, "counterexample must carry a concrete schedule"

    replay = replay_collective(rows, cols, kind, ce.schedule,
                               width=width, mutation=mutation)
    assert replay.confirmed, replay.summary()
    # The same schedule on a clean network must NOT reproduce anything.
    clean = replay_collective(rows, cols, kind, ce.schedule, width=width)
    assert not clean.confirmed, clean.summary()
    assert not clean.hung and not clean.wrong_values


def test_double_pulse_hangs_single_row():
    # On a 1xN mesh the double pulse makes the master finish its gather
    # early and start rounds without the last operand: the straggler is
    # never released (termination), which replay reproduces as a hang.
    model = CollectiveModel(1, 3, "sum", width=3,
                            mutation="slave-double-pulse")
    result = explore_collective(model)
    assert result.verdicts[P_COLL_TERMINATION] == VIOLATED or \
        result.verdicts[P_COLL_VALUE] == VIOLATED
    ce = result.counterexample
    replay = replay_collective(1, 3, "sum", ce.schedule, width=3,
                               mutation="slave-double-pulse")
    assert replay.confirmed


# ---------------------------------------------------------------------- #
# Wire faults at the model level.
# ---------------------------------------------------------------------- #
def test_stuck_low_tx_is_a_hang():
    model = CollectiveModel(2, 2, "sum", width=2, stuck={"txH0": 0})
    result = explore_collective(model)
    assert result.verdicts[P_COLL_TERMINATION] == VIOLATED
    replay = replay_collective(2, 2, "sum", result.counterexample.schedule,
                               width=2, stuck={"txH0": 0})
    assert replay.hung


def test_stuck_high_rel_corrupts_values_unguarded():
    # Without the hardened guard a stuck-high release line feeds bogus
    # reflection bits straight into the accumulators.
    model = CollectiveModel(2, 2, "sum", width=2, stuck={"relH0": 1})
    result = explore_collective(model)
    assert result.verdicts[P_COLL_VALUE] == VIOLATED
    replay = replay_collective(2, 2, "sum", result.counterexample.schedule,
                               width=2, stuck={"relH0": 1})
    assert replay.wrong_values


def test_counterexample_roundtrips_to_dict():
    model = CollectiveModel(2, 2, "sum", width=2,
                            mutation="master-skip-own")
    result = explore_collective(model)
    d = result.to_dict()
    assert d["mutation"] == "master-skip-own"
    assert d["counterexample"]["schedule"]
    assert d["verdicts"][P_COLL_VALUE] == VIOLATED


def test_tail_bound_admits_completion_on_the_last_tick():
    # The longest tail of this model takes exactly 8 ticks: a bound of 8
    # proves termination, a bound of 7 is one tick short.
    def run(max_ticks):
        return explore_collective(CollectiveModel(1, 2, "sum", width=2),
                                  max_ticks=max_ticks)

    assert run(8).verdicts == {p: PROVED for p in COLLECTIVE_PROPERTIES}
    short = run(7)
    assert short.verdicts[P_COLL_TERMINATION] == VIOLATED
    assert short.counterexample.message == "no completion within 7 ticks"
    assert short.counterexample.at_tick == 7
