"""The collective explorer against the explorer it replaced.

:func:`reference_explore` keeps the collective explorer as it was
before it skipped repeated work: every model step restores the whole
fabric snapshot, and every termination tail ticks from its first
all-arrived state to completion.  ``explore_collective`` must reach the
same verdicts, state and transition counts and counterexamples
(property, message, schedule, injections, ``at_tick``) on every model
here: the census, the planted mutations, the 1x3 double-pulse hang,
``skip-echo-compare``, the k=1 adversary models and a tail bound set at
the longest tail and one tick below it.

On every fabric model here the first tail the search runs is its
longest, so the tail bound never decides whether a later tail may stop
at a key an earlier one passed through.  :class:`StaggerModel` is a toy
where it does, and a planted memo that ignores the bound is caught on
it.
"""

from typing import Dict, List, Optional, Tuple

import pytest

from repro.collectives.controllers import M_ROUNDS
from repro.common.errors import ConfigError
from repro.verify import (COLLECTIVE_PROPERTIES, NOT_PROVED, PROVED,
                          VIOLATED, CollectiveModel, P_COLL_TERMINATION,
                          PropertyViolation, explore_collective)
from repro.verify import collectives
from repro.verify.collectives import (INJ_BASE, TICK,
                                      CollectiveCounterexample,
                                      CollectiveExploreResult, inj_decode)

from .test_collectives_model import CENSUS, MUTATION_CASES


class ReferenceModel(CollectiveModel):
    """The model with a full fabric restore before every read or step."""

    def _eligible_masters(self, fab):
        self.fabric.restore(fab)
        return [i for i, m in enumerate(self.adv_masters)
                if m.state == M_ROUNDS]

    def is_complete(self, state):
        self.fabric.restore(state[0])
        return self.fabric.done

    def step(self, state, action):
        fab, cores, inj_left = state
        self.fabric.restore(fab)
        if action == TICK or action <= INJ_BASE:
            if action <= INJ_BASE:
                master, delta = inj_decode(action)
                assert inj_left > 0, "adversary budget exhausted"
                self.adv_masters[master].tx.count_delta = delta
                inj_left -= 1
            deliveries = self.fabric.tick()
            self._check(deliveries, cores)
        else:
            value, arrived = cores[action]
            if arrived:
                raise ConfigError(f"local {action} already arrived")
            self.fabric.arrive_local(action, value)
            cores = tuple((v, True) if i == action else (v, a)
                          for i, (v, a) in enumerate(cores))
        return (self.fabric.snapshot(), cores, inj_left)


def reference_explore(model, *, max_states=500_000, max_ticks=0):
    """BFS every arrival/tick interleaving; every tail runs in full."""
    if not max_ticks:
        max_ticks = 32 * (model.rows + model.cols + model.width + 8)
    result = CollectiveExploreResult(
        kind=model.kind, rows=model.rows, cols=model.cols,
        width=model.width, mutation=model.mutation,
        integrity=model.integrity,
        adversary_budget=model.adversary_budget)
    init = model.initial()
    parents: Dict[tuple, Optional[Tuple[tuple, int]]] = {
        model.key(init): None}
    queue = [init]
    head = 0

    def path_to(key):
        actions: List[int] = []
        while True:
            edge = parents[key]
            if edge is None:
                return list(reversed(actions))
            key, action = edge
            actions.append(action)

    def fail(prop, message, actions):
        cycle, sched, injections = 0, [], []
        for a in actions:
            if a == TICK:
                cycle += 1
            elif a <= INJ_BASE:
                injections.append((cycle,) + inj_decode(a))
                cycle += 1
            else:
                sched.append((cycle, a, model.values[a]))
        result.counterexample = CollectiveCounterexample(
            prop=prop, message=message, schedule=sched, at_tick=cycle,
            injections=injections)
        for p in COLLECTIVE_PROPERTIES:
            result.verdicts[p] = VIOLATED if p == prop else \
                result.verdicts.get(p, NOT_PROVED)
        return result

    def run_tail(state, actions):
        for _ in range(max_ticks):
            if model.is_complete(state):
                return None
            try:
                nxt = model.step(state, TICK)
            except PropertyViolation as v:
                return fail(v.prop, v.message, actions + [TICK])
            actions = actions + [TICK]
            result.transitions += 1
            if nxt == state:
                return fail(
                    P_COLL_TERMINATION,
                    "fabric quiescent before completion (hang): "
                    "undelivered locals remain but no controller "
                    "will act", actions)
            state = nxt
        if model.is_complete(state):
            return None
        return fail(P_COLL_TERMINATION,
                    f"no completion within {max_ticks} ticks", actions)

    while head < len(queue):
        state = queue[head]
        head += 1
        skey = model.key(state)
        for action in model.actions(state):
            try:
                child = model.step(state, action)
            except PropertyViolation as v:
                return fail(v.prop, v.message, path_to(skey) + [action])
            result.transitions += 1
            ckey = model.key(child)
            if ckey in parents:
                continue
            parents[ckey] = (skey, action)
            if model.all_arrived(child):
                if child[2] == 0 or not model.all_arrived(state) \
                        or action <= INJ_BASE:
                    bad = run_tail(child, path_to(skey) + [action])
                    if bad is not None:
                        return bad
                if child[2] == 0 or model.is_complete(child):
                    continue
            if len(parents) >= max_states:
                result.capped = True
                result.states = len(parents)
                for p in COLLECTIVE_PROPERTIES:
                    result.verdicts[p] = NOT_PROVED
                return result
            queue.append(child)

    result.states = len(parents)
    for p in COLLECTIVE_PROPERTIES:
        result.verdicts[p] = PROVED
    return result


def outcome(result):
    ce = result.counterexample
    return (result.states, result.transitions, result.capped,
            dict(result.verdicts),
            None if ce is None else (ce.prop, ce.message, ce.schedule,
                                     ce.injections, ce.at_tick))


#: (rows, cols, kind, model options, explorer options).
_CASES = (
    [(r, c, k, dict(o), {}) for (r, c, k, o), _ in CENSUS]
    + [(r, c, k, dict(width=w, mutation=m), {})
       for m, r, c, k, w in MUTATION_CASES]
    + [(1, 3, "sum", dict(width=3, mutation="slave-double-pulse"), {}),
       (2, 2, "sum", dict(width=2, integrity="echo", adversary_budget=1,
                          mutation="skip-echo-compare"), {})]
    + [(r, c, "sum", dict(width=2, integrity=mode, adversary_budget=1),
        {}) for r, c in ((2, 2), (2, 3))
       for mode in ("echo", "residue", "vote")]
    # The longest tail of each model, and one tick short of it.
    + [(r, c, k, dict(width=2), dict(max_ticks=t))
       for r, c, k, longest in ((1, 2, "sum", 8), (2, 2, "sum", 19),
                                (2, 3, "max", 18))
       for t in (longest, longest - 1)])


def _id(case):
    rows, cols, kind, options, explorer = case
    extra = ",".join(f"{k}={v}" for k, v in {**options, **explorer}.items())
    return f"{rows}x{cols}-{kind}-{extra}"


#: The census already holds the 2x2 echo k=1 model.
CASES = list({_id(c): c for c in _CASES}.values())


@pytest.mark.parametrize("case", CASES, ids=[_id(c) for c in CASES])
def test_explorer_matches_reference(case):
    rows, cols, kind, options, explorer = case
    want = reference_explore(ReferenceModel(rows, cols, kind, **options),
                             **explorer)
    got = explore_collective(CollectiveModel(rows, cols, kind, **options),
                             **explorer)
    assert outcome(got) == outcome(want)


class StaggerModel:
    """Two cores; the fabric is one counter that completes at 9.  Both
    cores arriving on one tick start it at 6, a tick between the
    arrivals starts it at 3: two tails on one path, and the search runs
    the short one first."""

    rows, cols, width, kind = 1, 2, 1, "sum"
    mutation, integrity, adversary_budget = None, "off", 0
    values = [1, 1]

    def initial(self):
        return (0, ((1, False), (1, False)), 0)

    def all_arrived(self, state):
        return all(arrived for _, arrived in state[1])

    def is_complete(self, state):
        return state[0] >= 9

    def key(self, state):
        return state

    def actions(self, state):
        acts = [i for i in range(2) if not state[1][i][1]]
        return acts + [TICK] if len(acts) < 2 else acts

    def step(self, state, action):
        count, cores, inj_left = state
        if action == TICK:
            return (count + 1 if self.all_arrived(state) else 1, cores,
                    inj_left)
        cores = tuple((v, a or i == action) for i, (v, a) in enumerate(cores))
        if all(a for _, a in cores):
            count = 6 if count == 0 else 3
        return (count, cores, inj_left)


class BoundlessMemo(collectives._TailMemo):
    """A planted memo: a tail stops at a remembered key even when the
    ticks it took plus the remembered ones break the bound."""

    def ticks_left(self, key, taken):
        return self.left.get(key)


def test_tail_bound_holds_where_tails_meet():
    for max_ticks, verdict in ((6, PROVED), (5, VIOLATED)):
        want = reference_explore(StaggerModel(), max_ticks=max_ticks)
        got = explore_collective(StaggerModel(), max_ticks=max_ticks)
        assert want.verdicts[P_COLL_TERMINATION] == verdict
        assert outcome(got) == outcome(want)


def test_planted_boundless_memo_is_caught(monkeypatch):
    want = reference_explore(StaggerModel(), max_ticks=5)
    monkeypatch.setattr(collectives, "_TailMemo", BoundlessMemo)
    got = explore_collective(StaggerModel(), max_ticks=5)
    assert got.verdicts[P_COLL_TERMINATION] == PROVED
    assert outcome(got) != outcome(want)
