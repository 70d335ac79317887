"""Restore by difference against a full restore.

The collective checker keeps the fabric in the last state it touched,
and :meth:`CollectiveFabric.restore` given that ``held`` snapshot
restores only the controllers whose part differs.  Hypothesis walks
over :class:`CollectiveModel` actions (meshes up to 3x3, every kind and
integrity mode, a stuck wire, adversary injections) that jump back to
earlier states.  After each restore by difference the fabric must match
a second fabric restored in full: ``snapshot()``, ``done``,
``will_act()`` and the next tick's deliveries.  A planted restore that
compares only the row masters shows the comparison can fail.
"""

from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from repro.collectives import ops
from repro.collectives.fabric import CollectiveFabric
from repro.gline.integrity import INTEGRITY_MODES
from repro.verify import CollectiveModel, PropertyViolation
from repro.verify.collectives import INJ_BASE, inj_decode


class RowMastersOnlyFabric(CollectiveFabric):
    """A planted restore: it compares only the row masters, so every
    other controller keeps whatever state it was in."""

    def restore(self, snap, held=None):
        if held is not None:
            held = (held[0],) + tuple(snap[1:])
        super().restore(snap, held)


def _stuck_options(rows, cols):
    wires = (["txH0", "relH1" if rows > 1 else "relH0"] if cols > 1
             else []) + (["txV", "relV"] if rows > 1 else [])
    return st.one_of(st.none(), st.tuples(st.sampled_from(wires),
                                          st.integers(0, 1))) \
        if wires else st.none()


@st.composite
def walks(draw):
    rows = draw(st.integers(1, 3))
    cols = draw(st.integers(2 if rows == 1 else 1, 3))
    stuck = draw(_stuck_options(rows, cols))
    return {
        "rows": rows, "cols": cols,
        "kind": draw(st.sampled_from(ops.KINDS)),
        "width": draw(st.integers(1, 2)),
        "integrity": draw(st.sampled_from(INTEGRITY_MODES)),
        "adversary_budget": draw(st.integers(0, 2)),
        "stuck": dict([stuck]) if stuck else None,
        # (jump back?, state pick, action pick) per step.
        "steps": draw(st.lists(st.tuples(st.integers(0, 3),
                                         st.integers(0, 10 ** 6),
                                         st.integers(0, 10 ** 6)),
                               min_size=1, max_size=60)),
    }


def _fabric(cls, walk, model):
    """A fabric of *cls* built and begun exactly as *model*'s."""
    fab = cls(walk["rows"], walk["cols"], walk["width"], 6, name="model",
              integrity=walk["integrity"])
    for gl, model_gl in zip(fab.lines, model.fabric.lines):
        gl.stuck = model_gl.stuck
    fab.begin(walk["kind"])
    return fab


def _observe(fab):
    return fab.snapshot(), fab.done, fab.will_act()


def compare(cls, walk):
    """Walk the model; restore *cls* by difference and a plain fabric
    in full to each state the walk is at, and compare them."""
    model = CollectiveModel(
        walk["rows"], walk["cols"], walk["kind"], width=walk["width"],
        integrity=walk["integrity"],
        adversary_budget=walk["adversary_budget"], stuck=walk["stuck"])
    diff = _fabric(cls, walk, model)
    full = _fabric(CollectiveFabric, walk, model)
    held = diff.snapshot()
    states = [model.initial()]
    state = states[0]
    for jump, pick, act in walk["steps"]:
        if jump == 0:
            state = states[pick % len(states)]
        fab = state[0]
        diff.restore(fab, held)
        full.restore(fab)
        assert _observe(diff) == _observe(full)
        actions = model.actions(state)
        action = actions[act % len(actions)] if actions else None
        if action is not None and action <= INJ_BASE:
            master, delta = inj_decode(action)
            for side in (diff, full):
                targets = [m for m in side._all_masters()
                           if m.tx is not None]
                targets[master].tx.count_delta = delta
        assert diff.tick() == full.tick()
        assert _observe(diff) == _observe(full)
        held = diff.snapshot()
        if action is None:
            continue
        try:
            state = model.step(state, action)
        except PropertyViolation:
            continue
        states.append(state)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(walk=walks())
def test_restore_by_difference_matches_full_restore(walk):
    compare(CollectiveFabric, walk)


def test_planted_row_masters_only_restore_is_caught():
    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None, phases=[Phase.generate],
              suppress_health_check=[HealthCheck.too_slow])
    @given(walk=walks())
    def run(walk):
        compare(RowMastersOnlyFabric, walk)

    try:
        run()
    except AssertionError:
        return
    raise AssertionError("the planted restore went unnoticed")
