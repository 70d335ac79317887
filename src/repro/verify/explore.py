"""Explicit-state exploration of the barrier transition system.

:func:`explore` runs a breadth-first search over states indexed by their
canonical key (:meth:`~repro.verify.model.GLBarrierModel.key`),
checking the transition-level properties (safety, exactly-once, the
4-cycle completion bound) as edges are generated and then proving
deadlock/livelock freedom with a progress pass over the closed state
graph.  Everything is deterministic -- action enumeration order, BFS
order, state counts -- so golden state-space sizes can be pinned in CI
and shard results merge reproducibly.

A counterexample is stored as the list of *action indices* along the
path from the initial state (index ``i`` selects
``model.actions(state)[i]``); :func:`replay_actions` turns it back into
states and actions, whose cores :mod:`repro.verify.conformance` reads
off as a real simulator schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .model import (GLBarrierModel, P_DEADLOCK, P_EXACTLY_ONCE, P_FLAP,
                    P_FOUR_CYCLE, P_RECOVERY, P_SAFETY, PropertyViolation)

#: Property result labels.
PROVED = "proved"
VIOLATED = "violated"
NOT_PROVED = "not-proved"   # exploration capped before closure
SKIPPED = "skipped"         # not meaningful for this scenario

ALL_PROPERTIES = (P_SAFETY, P_DEADLOCK, P_EXACTLY_ONCE, P_FOUR_CYCLE)


@dataclass
class Counterexample:
    """A violating path: ``actions[i]`` is an index into
    ``model.actions(state_i)`` and the final action triggers the
    violation (or, for liveness, enters the stuck cycle)."""

    prop: str
    message: str
    action_indices: List[int]

    def to_dict(self) -> Dict[str, object]:
        return {"property": self.prop, "message": self.message,
                "action_indices": list(self.action_indices)}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Counterexample":
        raw = data["action_indices"]
        assert isinstance(raw, list)
        return cls(prop=str(data["property"]),
                   message=str(data["message"]),
                   action_indices=[int(i) for i in raw])


@dataclass
class ExploreResult:
    """Outcome of one (possibly rooted) exploration."""

    states: int
    transitions: int
    capped: bool
    violation: Optional[Counterexample]
    #: Property name -> PROVED / VIOLATED / NOT_PROVED / SKIPPED.
    properties: Dict[str, str] = field(default_factory=dict)
    #: Largest observed all-arrived-to-release latency (ticks).
    max_completion_ticks: int = 0

    @property
    def ok(self) -> bool:
        return self.violation is None and not self.capped


def replay_actions(model: GLBarrierModel, action_indices: Sequence[int],
                   root: Optional[bytes] = None
                   ) -> Tuple[List[bytes], List[Tuple[Tuple[int, ...], bool]],
                              Optional[PropertyViolation]]:
    """Re-walk a path of action indices from *root*.

    Returns ``(states, actions, violation)``: ``states[i]`` is the state
    *before* ``actions[i]``, an action is ``(cores, glitch)``; a
    violation raised by the final step is captured and returned rather
    than raised."""
    state = model.initial() if root is None else root
    states: List[bytes] = []
    actions: List[Tuple[Tuple[int, ...], bool]] = []
    for n, idx in enumerate(action_indices):
        acts = model.actions(state)
        if not 0 <= idx < len(acts):
            raise ValueError(f"action index {idx} out of range at "
                             f"step {n}")
        states.append(state)
        actions.append(acts[idx])
        try:
            state = model.step(state, acts[idx])
        except PropertyViolation as exc:
            if n != len(action_indices) - 1:
                raise
            return states, actions, exc
    states.append(state)
    return states, actions, None


def _path_to(parents: List[Tuple[int, int]], sid: int) -> List[int]:
    path: List[int] = []
    while sid > 0:
        pid, ai = parents[sid]
        path.append(ai)
        sid = pid
    path.reverse()
    return path


def explore(model: GLBarrierModel, *, max_states: int = 2_000_000,
            root: Optional[bytes] = None) -> ExploreResult:
    """Exhaustively enumerate the reachable state space, one state per
    canonical key.

    Stops at the first property violation (returning its counterexample)
    or when *max_states* distinct keys have been generated (returning
    ``capped=True`` -- all universal properties then downgrade to
    ``not-proved``)."""
    init = model.initial() if root is None else root
    #: The first state reached with each key, and that key.
    states: List[bytes] = [init]
    keys: List[bytes] = [model.key(init)]
    index: Dict[bytes, int] = {keys[0]: 0}
    parents: List[Tuple[int, int]] = [(-1, -1)]
    transitions = 0
    capped = False
    violation: Optional[Counterexample] = None

    head = 0
    while head < len(states) and violation is None:
        sid = head
        head += 1
        state, key = states[sid], keys[sid]
        for ai, act in enumerate(model.actions(state)):
            try:
                nxt = model.step(state, act)
            except PropertyViolation as exc:
                violation = Counterexample(
                    prop=exc.prop, message=exc.message,
                    action_indices=_path_to(parents, sid) + [ai])
                break
            nkey = model.key(nxt)
            if nkey == key:
                continue  # pure stutter; dormancy adds no new behavior
            transitions += 1
            if nkey not in index:
                if len(states) >= max_states:
                    capped = True
                    continue
                index[nkey] = len(states)
                states.append(nxt)
                keys.append(nkey)
                parents.append((sid, ai))

    if violation is None and not capped:
        violation = _progress_pass(model, states, keys, index, parents)

    return ExploreResult(
        states=len(states), transitions=transitions, capped=capped,
        violation=violation,
        properties=_verdicts(model, capped, violation),
        max_completion_ticks=model.max_completion_ticks)


def _progress_pass(model: GLBarrierModel, states: List[bytes],
                   keys: List[bytes], index: Dict[bytes, int],
                   parents: List[Tuple[int, int]]
                   ) -> Optional[Counterexample]:
    """Deadlock/livelock freedom: from *every* reachable state, the
    fair schedule that delivers all pending arrivals each step must
    complete all episodes.

    This is the standard progress argument for barrier FSMs: once no new
    arrivals are withheld the system is deterministic, so following the
    maximal action either reaches completion (good -- and so is every
    state on the way) or revisits a state (a genuine livelock/deadlock,
    since no further stimulus can ever arrive)."""
    good = bytearray(len(states))
    for start in range(len(states)):
        if good[start]:
            continue
        chain: List[int] = []
        pos: Dict[int, int] = {}
        cur = start
        while True:
            if good[cur] or model.is_complete(states[cur]):
                break
            if cur in pos:
                # Cycle with no completion: every state in it is stuck.
                prefix = _path_to(parents, chain[0]) if chain else []
                loop_actions = [len(model.actions(states[c])) - 1
                                for c in chain[pos[cur]:]]
                return Counterexample(
                    prop=P_DEADLOCK,
                    message=("no completion reachable under maximal "
                             "arrival delivery (stuck cycle of length "
                             f"{len(chain) - pos[cur]})"),
                    action_indices=prefix + [
                        len(model.actions(states[c])) - 1
                        for c in chain[:pos[cur]]] + loop_actions)
            pos[cur] = len(chain)
            chain.append(cur)
            nkey = model.key(model.step(states[cur],
                                        model.max_action(states[cur])))
            if nkey == keys[cur]:
                prefix = _path_to(parents, start)
                return Counterexample(
                    prop=P_DEADLOCK,
                    message="state can make no further progress yet "
                            "episodes remain incomplete",
                    action_indices=prefix)
            cur = index[nkey]
        for c in chain:
            good[c] = 1
    return None


def _verdicts(model: GLBarrierModel, capped: bool,
              violation: Optional[Counterexample]) -> Dict[str, str]:
    props = ALL_PROPERTIES + ((P_RECOVERY, P_FLAP) if model.recovery
                              else ())
    out: Dict[str, str] = {}
    for prop in props:
        if prop == P_FOUR_CYCLE and not model.check_four_cycle:
            out[prop] = SKIPPED
            continue
        if violation is not None and violation.prop == prop:
            out[prop] = VIOLATED
        elif violation is not None or capped:
            out[prop] = NOT_PROVED
        else:
            out[prop] = PROVED
    return out
