"""State-space sharding over the parallel experiment executor.

``repro verify --shard-depth D`` splits one exploration into independent
sub-explorations rooted at the distinct states reachable in ``D`` steps
from the initial state.  Each root becomes a :class:`VerifyShardSpec` --
the verify analogue of :class:`~repro.exec.spec.RunSpec` -- so shards fan
out over :class:`~repro.exec.ParallelRunner` worker processes, land in
the persistent :class:`~repro.exec.ResultCache` keyed by mesh, scenario,
mutation, prefix and ``code_fingerprint()``, and enjoy the supervisor's
timeout/retry/journal machinery for free.

Shards overlap wherever their subtrees reconverge, so merged state and
transition totals are an upper bound on the single-process count; the
merge is nevertheless deterministic, and a violation found by any shard
carries its full action path (prefix + local) back to the initial state.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..exec.version import code_fingerprint
from .explore import Counterexample, ExploreResult, explore
from .model import GLBarrierModel, PropertyViolation
from .scenarios import FAULT_FREE


@dataclass
class VerifyShardResult:
    """One shard's contribution, in cache/IPC dict form like RunResult."""

    states: int
    transitions: int
    capped: bool
    max_completion_ticks: int
    violation: Optional[Dict[str, object]]

    def to_dict(self) -> Dict[str, object]:
        return {"kind": "verify-shard", "states": self.states,
                "transitions": self.transitions, "capped": self.capped,
                "max_completion_ticks": self.max_completion_ticks,
                "violation": self.violation}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "VerifyShardResult":
        def as_int(key: str) -> int:
            value = data[key]
            assert isinstance(value, (int, float, str))
            return int(value)

        violation = data.get("violation")
        assert violation is None or isinstance(violation, dict)
        return cls(states=as_int("states"),
                   transitions=as_int("transitions"),
                   capped=bool(data["capped"]),
                   max_completion_ticks=as_int("max_completion_ticks"),
                   violation=violation)


@dataclass
class VerifyShardSpec:
    """A picklable, content-hashable sub-exploration rooted at a prefix.

    Satisfies the executor's spec protocol: ``key()``/``fingerprint()``
    for the cache, ``execute()`` for the worker, ``result_from_dict`` so
    the runner decodes stored dicts into :class:`VerifyShardResult`
    instead of ``RunResult``, and ``max_events = None`` so the
    supervisor's deadline heuristic falls back to its flat default.
    """

    rows: int
    cols: int
    scenario: str = FAULT_FREE.name
    mutation: Optional[str] = None
    episodes: int = 1
    prefix: Tuple[int, ...] = ()
    max_states: int = 2_000_000

    #: Supervisor deadline hook (no event budget for explorations).
    max_events: Optional[int] = None

    #: Executor protocol: decode cached/IPC dicts into shard results.
    result_from_dict = staticmethod(VerifyShardResult.from_dict)

    # ------------------------------------------------------------------ #
    def build_model(self) -> GLBarrierModel:
        from .scenarios import get_scenario
        return GLBarrierModel(self.rows, self.cols,
                              scenario=get_scenario(self.scenario),
                              mutation=self.mutation,
                              episodes=self.episodes)

    def fingerprint(self) -> Dict[str, object]:
        return {"kind": "verify-shard",
                "rows": self.rows, "cols": self.cols,
                "scenario": self.scenario, "mutation": self.mutation,
                "episodes": self.episodes,
                "prefix": list(self.prefix),
                "max_states": self.max_states,
                "code": code_fingerprint()}

    def key(self) -> str:
        blob = json.dumps(self.fingerprint(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def execute(self) -> VerifyShardResult:
        model = self.build_model()
        state = model.initial()
        for n, idx in enumerate(self.prefix):
            acts = model.actions(state)
            try:
                state = model.step(state, acts[idx])
            except PropertyViolation as exc:
                return VerifyShardResult(
                    states=0, transitions=0, capped=False,
                    max_completion_ticks=model.max_completion_ticks,
                    violation=Counterexample(
                        prop=exc.prop, message=exc.message,
                        action_indices=list(self.prefix[:n + 1])
                    ).to_dict())
        res = explore(model, max_states=self.max_states, root=state)
        violation = None
        if res.violation is not None:
            violation = Counterexample(
                prop=res.violation.prop, message=res.violation.message,
                action_indices=(list(self.prefix)
                                + res.violation.action_indices)).to_dict()
        return VerifyShardResult(
            states=res.states, transitions=res.transitions,
            capped=res.capped,
            max_completion_ticks=res.max_completion_ticks,
            violation=violation)


# ---------------------------------------------------------------------- #
def shard_prefixes(model: GLBarrierModel, depth: int
                   ) -> Tuple[List[Tuple[int, ...]],
                              Optional[Counterexample]]:
    """Distinct depth-*depth* action prefixes (deduplicated by the key
    of the reached state), or a counterexample if one surfaces that
    shallow."""
    init = model.initial()
    #: key -> (the first state reached with it, its prefix).
    frontier: Dict[bytes, Tuple[bytes, Tuple[int, ...]]] = {
        model.key(init): (init, ())}
    for _ in range(depth):
        nxt: Dict[bytes, Tuple[bytes, Tuple[int, ...]]] = {}
        for key, (state, prefix) in frontier.items():
            for ai, act in enumerate(model.actions(state)):
                try:
                    child = model.step(state, act)
                except PropertyViolation as exc:
                    return [], Counterexample(
                        prop=exc.prop, message=exc.message,
                        action_indices=list(prefix) + [ai])
                child_key = model.key(child)
                if child_key == key:
                    # Keep stutter roots: the subtree below them is the
                    # same, and dropping a root would lose coverage when
                    # the state has no other representative.
                    nxt.setdefault(key, (state, prefix))
                    continue
                nxt.setdefault(child_key, (child, prefix + (ai,)))
        frontier = nxt
    return sorted(prefix for _, prefix in frontier.values()), None


def merge_shards(results: Sequence[VerifyShardResult],
                 model: GLBarrierModel) -> ExploreResult:
    """Deterministically combine shard results into one report.

    Counts are summed (shards overlap where subtrees reconverge, so this
    upper-bounds the single-process census); the first shard violation in
    spec order wins, matching single-process first-violation semantics
    closely enough for reporting."""
    violation: Optional[Counterexample] = None
    for res in results:
        if res.violation is not None:
            violation = Counterexample.from_dict(res.violation)
            break
    capped = any(r.capped for r in results)
    from .explore import _verdicts
    return ExploreResult(
        states=sum(r.states for r in results),
        transitions=sum(r.transitions for r in results),
        capped=capped, violation=violation,
        properties=_verdicts(model, capped, violation),
        max_completion_ticks=max(
            (r.max_completion_ticks for r in results), default=0))
