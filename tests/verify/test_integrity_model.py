"""Detection-completeness proofs for the counting-line integrity layer.

The miscount adversary (``CollectiveModel(adversary_budget=k)``) may
perturb any stage master's counting line by +-1 on any round-phase tick,
up to *k* times per episode, under every arrival interleaving.  The
proofs here establish:

* ``integrity="off"`` is *vulnerable*: one miscount yields a silent
  wrong value (violated + replay-confirmed on the real network);
* ``echo`` and ``residue`` are *detection-complete at k=1*: no
  undetected wrong value exists on any mesh up to 4x4 (the two 4x4
  explorations take 2.5 and 5 minutes and run under
  ``REPRO_VERIFY_EXHAUSTIVE=1``, which CI's integrity job sets; every
  smaller mesh is proved here);
* the bound is *tight*: at k=2 the adversary defeats echo (corrupt both
  samples of one round identically) and residue (a data-round /
  digit-round pair whose deltas agree mod 15), and both defeats
  concretize and replay;
* ``vote`` *corrects* k=1 silently (proved) and is defeated at k=2;
* the planted ``skip-echo-compare`` mutation is caught by the adversary
  model, concretized, and CONFIRMED by replay -- while the same
  schedule+injections on an unmutated echo network heals cleanly.
"""

import os

import pytest

from repro.verify import (CollectiveModel, P_COLL_VALUE, PROVED, VIOLATED,
                          explore_collective, replay_collective)

ALL_MESHES = [(r, c) for r in range(1, 5) for c in range(1, 5)]
#: The 4x4 explorations take about 2.5 minutes (echo, 337,540 states)
#: and 5 minutes (residue, 676,235 states); every smaller mesh takes
#: under a minute, the slowest (4x3) about 55 s.
FAST_MESHES = [m for m in ALL_MESHES if m != (4, 4)]
EXHAUSTIVE = os.environ.get("REPRO_VERIFY_EXHAUSTIVE") == "1"

#: Kind rotated per mesh (as in test_collectives_model) so every counted
#: kind meets the adversary on several meshes; bcast is excluded -- its
#: data rides the release line, which miscounts cannot touch.
ROTATION = ("sum", "min", "max", "any", "all", "vote")


def _case(rows, cols):
    kind = ROTATION[(rows * 4 + cols) % len(ROTATION)]
    width = 1 if max(rows, cols) >= 4 else 2
    mode = "echo" if (rows + cols) % 2 else "residue"
    return kind, width, mode


@pytest.mark.parametrize("rows,cols", FAST_MESHES)
def test_detection_complete_k1_all_meshes(rows, cols):
    kind, width, mode = _case(rows, cols)
    model = CollectiveModel(rows, cols, kind, width=width,
                            integrity=mode, adversary_budget=1)
    result = explore_collective(model, max_states=1_000_000)
    assert not result.capped
    assert result.ok, result.counterexample and result.counterexample.message
    assert result.verdicts[P_COLL_VALUE] == PROVED


@pytest.mark.skipif(not EXHAUSTIVE,
                    reason="4x4 adversary proofs take 2.5-5 min each; "
                           "set REPRO_VERIFY_EXHAUSTIVE=1 (CI does)")
@pytest.mark.parametrize("mode", ["echo", "residue"])
def test_detection_complete_k1_4x4(mode):
    model = CollectiveModel(4, 4, "sum", width=1,
                            integrity=mode, adversary_budget=1)
    result = explore_collective(model, max_states=1_000_000)
    assert not result.capped
    assert result.ok, result.counterexample and result.counterexample.message


@pytest.mark.parametrize("mode", ["echo", "residue", "vote"])
def test_vote_and_modes_prove_on_2x3_sum(mode):
    model = CollectiveModel(2, 3, "sum", width=2,
                            integrity=mode, adversary_budget=1)
    result = explore_collective(model)
    assert result.ok, result.counterexample and result.counterexample.message


# ---------------------------------------------------------------------- #
# The off-mode vulnerability: silent corruption, concretized + replayed.
# ---------------------------------------------------------------------- #
def test_off_mode_single_miscount_is_silent_corruption():
    model = CollectiveModel(2, 2, "sum", width=2, adversary_budget=1)
    result = explore_collective(model)
    assert result.verdicts[P_COLL_VALUE] == VIOLATED
    ce = result.counterexample
    assert ce is not None and ce.injections, \
        "the counterexample must carry the concrete miscount"
    replay = replay_collective(2, 2, "sum", ce.schedule, width=2,
                               injections=ce.injections)
    assert replay.confirmed and replay.wrong_values, replay.summary()
    # The identical schedule with integrity on heals: same injections,
    # correct values everywhere.
    healed = replay_collective(2, 2, "sum", ce.schedule, width=2,
                               integrity="echo", injections=ce.injections)
    assert not healed.confirmed, healed.summary()


def test_counterexample_dict_carries_injections():
    model = CollectiveModel(2, 2, "sum", width=2, adversary_budget=1)
    d = explore_collective(model).to_dict()
    assert d["adversary_budget"] == 1
    assert d["counterexample"]["injections"]


# ---------------------------------------------------------------------- #
# Tightness: every mode's detection bound is exactly k=1.
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("mode", ["echo", "residue", "vote"])
def test_k2_defeats_every_mode_and_replays(mode):
    model = CollectiveModel(2, 2, "sum", width=2,
                            integrity=mode, adversary_budget=2)
    result = explore_collective(model, max_states=1_000_000)
    assert result.verdicts[P_COLL_VALUE] == VIOLATED, \
        f"{mode} unexpectedly survives two coordinated miscounts"
    ce = result.counterexample
    assert len(ce.injections) == 2
    replay = replay_collective(2, 2, "sum", ce.schedule, width=2,
                               integrity=mode, injections=ce.injections)
    assert replay.confirmed, replay.summary()


# ---------------------------------------------------------------------- #
# Planted mutation: the verification layer checks itself.
# ---------------------------------------------------------------------- #
def test_skip_echo_compare_mutation_caught_and_replay_confirms():
    model = CollectiveModel(2, 2, "sum", width=2, integrity="echo",
                            mutation="skip-echo-compare",
                            adversary_budget=1)
    result = explore_collective(model)
    assert result.verdicts[P_COLL_VALUE] == VIOLATED
    ce = result.counterexample
    assert ce is not None and ce.injections
    replay = replay_collective(2, 2, "sum", ce.schedule, width=2,
                               mutation="skip-echo-compare",
                               integrity="echo", injections=ce.injections)
    assert replay.confirmed and replay.wrong_values, replay.summary()
    # Without the mutation the same run is detected and healed in-wire.
    clean = replay_collective(2, 2, "sum", ce.schedule, width=2,
                              integrity="echo", injections=ce.injections)
    assert not clean.confirmed, clean.summary()
    assert not clean.hung and not clean.wrong_values


def test_mutation_is_inert_without_adversary():
    # skip-echo-compare only matters when a round is actually corrupted:
    # with no miscounts every compare it skips would have passed anyway.
    model = CollectiveModel(2, 2, "sum", width=2, integrity="echo",
                            mutation="skip-echo-compare")
    assert explore_collective(model).ok
