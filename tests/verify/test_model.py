"""Model-vs-simulator equivalence and model-construction tests.

The transition system must be a cycle-accurate abstraction of
:class:`~repro.gline.network.GLineBarrierNetwork`: with
``barreg_write_cycles = 0`` the model's step *t* is the engine's cycle
*t*, so for *any* arrival schedule the model must release exactly the
cores the network releases, on exactly the cycles it releases them.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.params import GLineConfig
from repro.common.stats import StatsRegistry
from repro.gline.network import GLineBarrierNetwork
from repro.sim.engine import Engine
from repro.verify import GLBarrierModel, PropertyViolation, get_scenario

mesh_shapes = st.tuples(st.integers(1, 4), st.integers(1, 4)).filter(
    lambda rc: rc[0] * rc[1] >= 2)


def arrive(model, state, cores=()):
    """One model step in which *cores* (mesh core ids) arrive."""
    return model.step(state, (tuple(cores), False))


def model_release_cycles(model, schedules):
    """Run the model; map core id -> list of release steps."""
    state = model.initial()
    out = {c: [] for c in range(model.rows * model.cols)}
    horizon = len(schedules) + 64
    for t in range(horizon):
        before = model.releases(state)
        state = arrive(model, state,
                       schedules[t] if t < len(schedules) else ())
        for c, (n_before, n) in enumerate(zip(before,
                                              model.releases(state))):
            if n > n_before:
                out[c].append(t)
        if model.is_complete(state) and t >= len(schedules):
            break
    return out


def network_release_cycles(rows, cols, schedules, episodes):
    engine = Engine()
    net = GLineBarrierNetwork(engine, StatsRegistry(rows * cols), rows,
                              cols, GLineConfig(barreg_write_cycles=0))
    out = {c: [] for c in range(rows * cols)}
    for t, cores in enumerate(schedules):
        for cid in cores:
            engine.schedule_at(t, lambda c=cid: net.arrive(
                c, lambda c=c: out[c].append(engine.now)))
    engine.run()
    assert net.barriers_completed == episodes
    return out


@settings(max_examples=40, deadline=None)
@given(shape=mesh_shapes, data=st.data())
def test_model_matches_network_on_random_schedules(shape, data):
    """For random arrival schedules, model releases at step t exactly
    when the network resumes the core at cycle t + 1."""
    rows, cols = shape
    n = rows * cols
    episodes = data.draw(st.integers(1, 3))
    times = [data.draw(st.lists(st.integers(0, 25), min_size=n,
                                max_size=n))
             for _ in range(episodes)]

    # Per-episode offsets keep arrivals of episode k+1 after episode k's
    # release (the model forbids re-arrival before the cooldown clears).
    schedules = []
    offset = 0
    for ep in range(episodes):
        last = offset + max(times[ep])
        for cid, t in enumerate(times[ep]):
            at = offset + t
            while len(schedules) <= at:
                schedules.append([])
            schedules[at].append(cid)
        offset = last + 10   # > completion bound + cooldown

    model = GLBarrierModel(rows, cols, episodes=episodes)
    got_model = model_release_cycles(model, schedules)
    got_net = network_release_cycles(rows, cols, schedules, episodes)

    for c in range(n):
        assert len(got_model[c]) == len(got_net[c]) == episodes
        # Network resumes one cycle after the releasing tick.
        assert [t + 1 for t in got_model[c]] == got_net[c], \
            f"core {c}: model {got_model[c]} vs network {got_net[c]}"


@pytest.mark.parametrize("shape,expected", [
    ((2, 2), 4), ((3, 3), 4), ((4, 4), 4), ((1, 4), 2), ((2, 1), 4)])
def test_completion_latency_pinned(shape, expected):
    """All-at-once arrival completes in exactly the paper's latency."""
    rows, cols = shape
    model = GLBarrierModel(rows, cols)
    state = arrive(model, model.initial(), range(rows * cols))
    ticks = 1
    while not model.is_complete(state):
        state = arrive(model, state)
        ticks += 1
        assert ticks < 32, "model failed to complete"
    assert ticks == expected
    assert model.max_completion_ticks == expected


def test_hardened_adds_one_validation_cycle():
    model = GLBarrierModel(
        2, 2, scenario=get_scenario("fault-free-hardened"))
    state = arrive(model, model.initial(), range(4))
    ticks = 1
    while not model.is_complete(state):
        state = arrive(model, state)
        ticks += 1
    assert ticks == 5 == model.completion_bound


def test_construction_validation():
    with pytest.raises(ValueError):
        GLBarrierModel(8, 2)            # beyond the S-CSMA 7x7 limit
    with pytest.raises(ValueError):
        GLBarrierModel(1, 1)            # no barrier to check
    with pytest.raises(ValueError):
        GLBarrierModel(2, 2, episodes=0)
    with pytest.raises(ValueError):
        # row_tx fault needs cols >= 2
        GLBarrierModel(4, 1, scenario=get_scenario("stuck-row-tx-low"))
    with pytest.raises(ValueError):
        GLBarrierModel(1, 4, mutation="mv-early-done")


def test_actions_structure():
    """Action 0 is the empty tick; the last action is maximal."""
    model = GLBarrierModel(2, 3)
    acts = model.actions(model.initial())
    assert acts[0] == ((), False)
    assert acts[-1] == model.max_action(model.initial()) \
        == (tuple(range(6)), False)
    # 2 rows x (master in {0,1} x slave count in {0,1,2}) = 6*6 options.
    assert len(acts) == 36


def test_actions_are_alike_in_states_of_one_key():
    """Two states that differ only in which interchangeable cores have
    arrived share a key, and each action index leads both to one key."""
    model = GLBarrierModel(3, 3)
    a = arrive(model, model.initial(), [3, 4])   # row 1: master, slave
    b = arrive(model, model.initial(), [8, 6])   # row 2: slave, master
    assert a != b and model.key(a) == model.key(b)
    acts_a, acts_b = model.actions(a), model.actions(b)
    assert len(acts_a) == len(acts_b)
    for act_a, act_b in zip(acts_a, acts_b):
        assert model.key(model.step(a, act_a)) \
            == model.key(model.step(b, act_b))


def test_step_cores_rejects_double_arrival():
    """Actions from outside the model (lifted traces) are checked: a
    waiting core cannot arrive again, and a core must be on the mesh."""
    model = GLBarrierModel(2, 2)
    state = arrive(model, model.initial(), [0])
    with pytest.raises(ValueError, match="not eligible"):
        arrive(model, state, [0])       # already waiting
    with pytest.raises(ValueError, match="outside the mesh"):
        arrive(model, state, [4])
    with pytest.raises(ValueError, match="not armed"):
        model.step(state, ((), True))


def test_violation_is_exception_with_property():
    model = GLBarrierModel(2, 2, mutation="mh-early-flag")
    # Both masters arrive; the mutated rows flag with zero slave signals
    # and the column stage releases cores 1 and 3 never arrived at.
    state = arrive(model, model.initial(), [0, 2])
    with pytest.raises(PropertyViolation) as exc_info:
        for _ in range(8):
            state = arrive(model, state)
    assert exc_info.value.prop == "safety"
