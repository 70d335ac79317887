"""Explicit-state checking of the G-line collective fabric.

Unlike the barrier checker, which re-derives the controller FSMs as an
abstract transition system, the collective checker drives the **real**
:class:`~repro.collectives.fabric.CollectiveFabric` -- the engine-free
protocol core -- through its ``snapshot``/``restore`` interface.  There
is no second implementation to diverge: every transition the checker
explores is computed by the production controllers themselves, and the
model layer only adds the things the fabric doesn't know about
(which cores have arrived, what operand each carries) plus the
property checks.

The state space is every interleaving of per-core arrivals against
fabric clock ticks (arrivals between the same two ticks share a cycle,
exactly as col_reg writes landing in the same cycle do).  Three
properties are checked on every edge:

* **value-correctness** -- every delivered result equals
  :func:`repro.collectives.ops.reference_reduce` over the operand
  multiset;
* **exactly-once** -- each core receives exactly one result per
  episode, and only after every operand of the episode is latched;
* **termination** -- once all cores have arrived, the (deterministic)
  fabric reaches completion; a quiescent-but-incomplete fabric is a
  hang.

Symmetry reduction: operands travel *with* the cores in the model
state, so any permutation of same-row slaves (and of whole rows below
row 0) maps reachable states to reachable states of a relabelled but
observably identical system.  Canonicalization sorts those bundles,
which keeps 4x4 meshes tractable.  A planted :data:`~repro.collectives.
controllers.MUTATIONS` entry breaks the symmetry (it is sited on
specific controllers), so mutated models disable the reduction.

The conformance bridge mirrors the barrier one: a counterexample is
already a concrete ``(cycle, core, value)`` schedule, and
:func:`replay_collective` drives a real engine-backed
:class:`~repro.collectives.network.CollectiveNetwork` with it
(``barreg_write_cycles=0`` aligns model steps with engine cycles) to
confirm the violation in "hardware".

**Miscount adversary** (``adversary_budget=k``): the model additionally
branches, on every tick where some stage master is mid-rounds, into
"tick with a one-cycle S-CSMA miscount on that master's counting line"
(delta +-1, budget *k* over the whole episode).  Injections are
restricted to round-phase ticks so the concrete schedule stays
cycle-aligned for replay.  Under ``integrity="off"`` the value property
is checked unconditionally and a single miscount yields a silent
wrong-value counterexample; under the verified modes the check is
conditioned on the fabric *not* being integrity-exhausted -- the
network layer never delivers an exhausted episode (it escalates
instead) -- so a ``PROVED`` value verdict is exactly the
detection-completeness statement: *no undetected wrong value exists
under any arrival interleaving and any placement of up to k
miscounts*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..collectives import ops
from ..collectives.config import CollectiveConfig
from ..collectives.controllers import M_ROUNDS
from ..collectives.fabric import CollectiveFabric
from ..collectives.network import CollectiveNetwork
from ..common.errors import ConfigError
from ..common.params import GLineConfig
from ..common.stats import StatsRegistry
from ..sim.engine import Engine
from .explore import NOT_PROVED, PROVED, VIOLATED
from .model import PropertyViolation

#: Property labels (the collective analogue of repro.verify.model's).
P_COLL_VALUE = "collective-value"
P_COLL_ONCE = "collective-exactly-once"
P_COLL_TERMINATION = "collective-termination"

COLLECTIVE_PROPERTIES = (P_COLL_VALUE, P_COLL_ONCE, P_COLL_TERMINATION)

#: Model actions.  An arrival action is the local index itself; ticks
#: and adversary injections are encoded as negatives: action <= INJ_BASE
#: is "tick with a miscount on master (INJ_BASE - action) // 2, delta +1
#: for even offsets and -1 for odd ones".
TICK = -1
INJ_BASE = -2


def inj_action(master: int, delta: int) -> int:
    """Encode an adversary injection as a model action."""
    return INJ_BASE - (master * 2 + (1 if delta < 0 else 0))


def inj_decode(action: int) -> Tuple[int, int]:
    """Decode an injection action into ``(master_index, delta)``."""
    off = INJ_BASE - action
    return off // 2, (-1 if off % 2 else 1)


@dataclass
class CollectiveCounterexample:
    """A violating run, already concrete: ``schedule`` lists
    ``(cycle, local, value)`` arrivals (cycle = ticks taken before the
    arrival), ``injections`` lists ``(cycle, master_index, delta)``
    adversary miscounts (applied to that cycle's tick), and the
    violation fired at ``at_tick``."""

    prop: str
    message: str
    schedule: List[Tuple[int, int, int]]
    at_tick: int
    injections: List[Tuple[int, int, int]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {"property": self.prop, "message": self.message,
                "schedule": [list(s) for s in self.schedule],
                "at_tick": self.at_tick,
                "injections": [list(i) for i in self.injections]}


@dataclass
class CollectiveExploreResult:
    """Outcome of one collective exploration."""

    kind: str
    rows: int
    cols: int
    width: int
    mutation: Optional[str]
    integrity: str = "off"
    adversary_budget: int = 0
    states: int = 0
    transitions: int = 0
    verdicts: Dict[str, str] = field(default_factory=dict)
    counterexample: Optional[CollectiveCounterexample] = None
    capped: bool = False

    @property
    def ok(self) -> bool:
        return all(v == PROVED for v in self.verdicts.values())

    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "mesh": f"{self.rows}x{self.cols}",
                "width": self.width, "mutation": self.mutation,
                "integrity": self.integrity,
                "adversary_budget": self.adversary_budget,
                "states": self.states, "transitions": self.transitions,
                "verdicts": dict(self.verdicts), "capped": self.capped,
                "counterexample": self.counterexample.to_dict()
                if self.counterexample else None}


def default_values(rows: int, cols: int, width: int) -> List[int]:
    """Deterministic operands: every core of row *r* carries ``r + 1``
    (masked), so same-row slaves stay interchangeable for the symmetry
    reduction while rows remain distinguishable in the result."""
    m = ops.mask(width)
    return [(r + 1) & m if (r + 1) & m else 1 & m
            for r in range(rows) for _ in range(cols)]


class CollectiveModel:
    """Transition system over the real fabric's snapshots.

    A state is ``(fabric_snapshot, cores, )`` where ``cores[i]`` is the
    ``(value, arrived)`` bundle of local *i*; delivery flags live inside
    the fabric snapshot itself.
    """

    def __init__(self, rows: int, cols: int, kind: str, *,
                 width: int = 1, values: Optional[Sequence[int]] = None,
                 mutation: Optional[str] = None,
                 stuck: Optional[Dict[str, int]] = None,
                 integrity: str = "off", integrity_budget: int = 3,
                 adversary_budget: int = 0,
                 max_transmitters: int = 6):
        ops.check_kind(kind)
        if rows > max_transmitters + 1 or cols > max_transmitters + 1:
            raise ConfigError("model mesh exceeds a single fabric")
        self.rows = rows
        self.cols = cols
        self.kind = kind
        self.width = width
        self.mutation = mutation
        self.stuck = dict(stuck or {})
        self.integrity = integrity
        self.adversary_budget = adversary_budget
        self.n = rows * cols
        if values is None:
            values = default_values(rows, cols, width)
        if len(values) != self.n:
            raise ConfigError(f"need {self.n} values, got {len(values)}")
        self.values = [v & ops.mask(width) for v in values]
        self.reference = ops.reference_reduce(kind, self.values, width)
        self.fabric = CollectiveFabric(rows, cols, width, max_transmitters,
                                       name="model", mutation=mutation,
                                       integrity=integrity,
                                       integrity_budget=integrity_budget)
        #: Adversary targets: every stage master with a counting line,
        #: in fabric order (row masters, then the column master).  The
        #: same ordering indexes ``CollectiveCounterexample.injections``
        #: and the replay hook.
        self.adv_masters = [m for m in self.fabric._all_masters()
                            if m.tx is not None]
        for suffix, level in self.stuck.items():
            hit = [ln for ln in self.fabric.lines
                   if ln.name.endswith(suffix)]
            if not hit:
                raise ConfigError(f"no fabric line matches {suffix!r}")
            for ln in hit:
                ln.stuck = level
        self.fabric.begin(kind)
        self._initial_fab = self.fabric.snapshot()
        #: The snapshot the fabric is in, or None while that is unknown:
        #: reading or stepping that state restores nothing, any other
        #: state restores only the controllers that differ from it.
        self._held: Optional[tuple] = self._initial_fab
        #: Symmetry is sound only while controllers are interchangeable;
        #: a mutation is sited on specific ones.
        self.symmetric = mutation is None
        # Per-row (tx, rel) stuck indices into fabric.lines, for
        # permuting stuck levels alongside row bundles.
        self._row_lines: List[Optional[Tuple[int, int]]] = []
        for r in range(rows):
            if cols > 1:
                tx = self.fabric.rmasters[r].tx
                rel = self.fabric.rmasters[r].rel
                idx = tuple(next(i for i, ln in enumerate(self.fabric.lines)
                                 if ln is wire) for wire in (tx, rel))
                self._row_lines.append(idx)  # type: ignore[arg-type]
            else:
                self._row_lines.append(None)
        self._col_lines: List[int] = []
        if rows > 1:
            for wire in (self.fabric.colmaster.tx,
                         self.fabric.colmaster.rel):
                self._col_lines.append(next(
                    i for i, ln in enumerate(self.fabric.lines)
                    if ln is wire))

    # ------------------------------------------------------------------ #
    def initial(self) -> tuple:
        cores = tuple((self.values[i], False) for i in range(self.n))
        return (self._initial_fab, cores, self.adversary_budget)

    def actions(self, state: tuple) -> List[int]:
        fab, cores, inj_left = state
        acts = [i for i in range(self.n) if not cores[i][1]]
        if any(arrived for _, arrived in cores):
            acts.append(TICK)
            if inj_left > 0:
                for m in self._eligible_masters(fab):
                    acts.append(inj_action(m, +1))
                    acts.append(inj_action(m, -1))
        return acts

    def _eligible_masters(self, fab: tuple) -> List[int]:
        """Adversary targets of this state: masters mid-rounds (the
        counted phases miscounts can corrupt; arrival counting is out of
        scope, matching the barrier checker's own miscount scenarios)."""
        self._hold(fab)
        return [i for i, m in enumerate(self.adv_masters)
                if m.state == M_ROUNDS]

    def all_arrived(self, state: tuple) -> bool:
        return all(arrived for _, arrived in state[1])

    def is_complete(self, state: tuple) -> bool:
        self._hold(state[0])
        return self.fabric.done

    def _hold(self, fab: tuple) -> None:
        """Put the fabric in snapshot *fab*."""
        if fab is not self._held:
            self.fabric.restore(fab, self._held)
            self._held = fab

    # ------------------------------------------------------------------ #
    def step(self, state: tuple, action: int) -> tuple:
        """Apply *action*; raises :class:`PropertyViolation` on a property
        violation, else returns the canonical successor."""
        fab, cores, inj_left = state
        self._hold(fab)
        self._held = None  # the fabric moves on from here
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
        self._held = self.fabric.snapshot()
        return (self._held, cores, inj_left)

    def _check(self, deliveries: List[Tuple[int, int]],
               cores: tuple) -> None:
        pending = [i for i in range(self.n) if not cores[i][1]]
        for local, value in deliveries:
            if not cores[local][1]:
                raise PropertyViolation(
                    P_COLL_ONCE,
                    f"local {local} delivered a result without having "
                    f"arrived")
            if pending:
                raise PropertyViolation(
                    P_COLL_ONCE,
                    f"local {local} delivered while locals {pending} "
                    f"have not arrived (premature release)")
            if value != self.reference and not self.fabric.int_exhausted:
                # An exhausted episode is *detected*: the network layer
                # escalates (retry / failover) instead of delivering it,
                # so only an un-flagged wrong value is silent corruption.
                raise PropertyViolation(
                    P_COLL_VALUE,
                    f"local {local} delivered {value}, reference "
                    f"{self.kind} over {self.values} is "
                    f"{self.reference}"
                    + (" (undetected: integrity not exhausted)"
                       if self.integrity != "off" else ""))

    # ------------------------------------------------------------------ #
    # Canonical symmetry reduction
    # ------------------------------------------------------------------ #
    def key(self, state: tuple) -> tuple:
        """Hashable canonical key identifying *state* up to symmetry.

        Same-row slave bundles, and whole row bundles below row 0, are
        interchangeable when their full (controller state, operand,
        delivery, wire-fault) tuples match, because the wires count
        transmitters without caring which one asserted; sorting those
        bundles makes symmetric states collide in the visited set.  The
        sort key is ``hash`` -- a hash tie between *unequal* bundles
        merely yields an unsorted canonical form (a missed merge, never
        a wrong one), while equal bundles always collide.  States stay
        un-permuted: counterexample paths keep true core labels.
        """
        if not self.symmetric:
            return state
        (rm, rs, cm, cs, kind, row_fed, col_done, gready, result,
         bc, skip, delivered, row_w, bw, stuck, *_barrier) = state[0]
        cores = state[1]
        cols = self.cols
        bundles: List[tuple] = []
        for r, lines in enumerate(self._row_lines):
            base = r * cols
            end = base + cols
            slaves = tuple(sorted(zip(rs[r], cores[base + 1:end],
                                      delivered[base + 1:end]), key=hash))
            wires = (stuck[lines[0]], stuck[lines[1]]) if lines else None
            bundles.append((rm[r], cores[base], delivered[base],
                            row_fed[r], cs[r - 1] if r else None, wires,
                            slaves))
        col_wires = tuple(stuck[i] for i in self._col_lines)
        return (bundles[0], tuple(sorted(bundles[1:], key=hash)), cm, kind,
                col_done, gready, result, bc, skip, row_w, bw, col_wires,
                state[2])


# ---------------------------------------------------------------------- #
# Exploration
# ---------------------------------------------------------------------- #
class _TailMemo:
    """How many ticks each canonical key a completed tail passed through
    was from completion.

    A tail from a state depends only on its canonical key -- the
    symmetry reduction's own assumption -- and never injects, so the
    key leaves out the adversary budget.  A later tail that reaches a
    remembered key completes in exactly the remembered ticks, without
    a violation, so it can stop there and count them instead."""

    def __init__(self, max_ticks: int):
        self.max_ticks = max_ticks
        self.left: Dict[tuple, int] = {}

    def ticks_left(self, key: tuple, taken: int) -> Optional[int]:
        """The remembered ticks from *key* to completion, if a tail that
        took *taken* ticks to reach it still completes within the
        bound; else None, and the tail ticks on."""
        left = self.left.get(key)
        if left is not None and taken + left <= self.max_ticks:
            return left
        return None

    def record(self, keys: List[tuple], ticks: int) -> None:
        """A tail passed through *keys*, one per tick, and completed
        *ticks* ticks after the first."""
        for i, key in enumerate(keys):
            self.left[key] = ticks - i


def explore_collective(model: CollectiveModel, *,
                       max_states: int = 500_000,
                       max_ticks: int = 0) -> CollectiveExploreResult:
    """BFS every arrival/tick interleaving of one episode.

    Once every core has arrived the fabric is deterministic, so those
    states are run straight to completion (the termination check) and
    never enqueued.  Such a tail must complete within *max_ticks* ticks
    (by default ``32 * (rows + cols + width + 8)``).  A tail stops early
    at a canonical key an earlier tail passed through, if the ticks it
    took plus those remembered for the key keep within the bound, and
    counts the remembered ticks as transitions: verdicts,
    counterexamples and counts are those of the full tails.
    """
    if not max_ticks:
        max_ticks = 32 * (model.rows + model.cols + model.width + 8)
    result = CollectiveExploreResult(
        kind=model.kind, rows=model.rows, cols=model.cols,
        width=model.width, mutation=model.mutation,
        integrity=model.integrity,
        adversary_budget=model.adversary_budget)
    init = model.initial()
    # canonical key -> (parent_key, action); states themselves ride the
    # queue un-permuted, with their keys, so counterexamples keep true
    # core labels.
    queue = [(init, model.key(init))]
    parents: Dict[tuple, Optional[Tuple[tuple, int]]] = {queue[0][1]: None}
    head = 0

    def path_to(key: tuple) -> List[int]:
        actions: List[int] = []
        while True:
            edge = parents[key]
            if edge is None:
                return list(reversed(actions))
            key, action = edge
            actions.append(action)

    def schedule_of(actions: List[int]) -> Tuple[
            List[Tuple[int, int, int]], List[Tuple[int, int, int]]]:
        cycle, sched, injections = 0, [], []
        for a in actions:
            if a == TICK:
                cycle += 1
            elif a <= INJ_BASE:
                injections.append((cycle,) + inj_decode(a))
                cycle += 1  # an injection rides a tick
            else:
                sched.append((cycle, a, model.values[a]))
        return sched, injections

    def fail(prop: str, message: str, actions: List[int]
             ) -> CollectiveExploreResult:
        ticks = sum(1 for a in actions if a == TICK or a <= INJ_BASE)
        sched, injections = schedule_of(actions)
        result.counterexample = CollectiveCounterexample(
            prop=prop, message=message, schedule=sched,
            at_tick=ticks, injections=injections)
        for p in COLLECTIVE_PROPERTIES:
            result.verdicts[p] = VIOLATED if p == prop else \
                result.verdicts.get(p, NOT_PROVED)
        return result

    tails = _TailMemo(max_ticks)

    def run_tail(state: tuple, skey: tuple, action: int
                 ) -> Optional[CollectiveExploreResult]:
        """Deterministic completion run from the all-arrived *state*
        that *action* led to from the state keyed *skey*."""
        def path(ticks: int) -> List[int]:
            return path_to(skey) + [action] + [TICK] * ticks

        keys: List[tuple] = []
        taken = 0
        while not model.is_complete(state):
            key = model.key(state)[:-1]  # a tail injects nothing
            left = tails.ticks_left(key, taken)
            if left is not None:
                result.transitions += left
                taken += left
                break
            if taken == max_ticks:
                return fail(P_COLL_TERMINATION,
                            f"no completion within {max_ticks} ticks",
                            path(taken))
            keys.append(key)
            try:
                nxt = model.step(state, TICK)
            except PropertyViolation as v:
                return fail(v.prop, v.message, path(taken + 1))
            taken += 1
            result.transitions += 1
            if nxt == state:
                return fail(
                    P_COLL_TERMINATION,
                    "fabric quiescent before completion (hang): "
                    "undelivered locals remain but no controller "
                    "will act", path(taken))
            state = nxt
        tails.record(keys, taken)
        return None

    while head < len(queue):
        state, skey = queue[head]
        head += 1
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
                # The injection-free suffix of this path is checked by a
                # deterministic tail run; re-run it only where the tail
                # actually changed (first all-arrived entry, or a fresh
                # injection) -- a pure-tick child's tail is a suffix of
                # its parent's, already verified.
                if child[2] == 0 or not model.all_arrived(state) \
                        or action <= INJ_BASE:
                    bad = run_tail(child, skey, action)
                    if bad is not None:
                        return bad
                if child[2] == 0 or model.is_complete(child):
                    continue  # no adversary branching left to explore
            if len(parents) >= max_states:
                result.capped = True
                result.states = len(parents)
                for p in COLLECTIVE_PROPERTIES:
                    result.verdicts[p] = NOT_PROVED
                return result
            queue.append((child, ckey))

    result.states = len(parents)
    for p in COLLECTIVE_PROPERTIES:
        result.verdicts[p] = PROVED
    return result


# ---------------------------------------------------------------------- #
# Conformance replay on the real simulator
# ---------------------------------------------------------------------- #
@dataclass
class CollectiveReplayResult:
    """What an engine-backed network did under a concrete schedule."""

    kind: str
    reference: int
    deliveries: Dict[int, Tuple[int, int]]   # core -> (cycle, value)
    double_delivered: List[int]
    hung: List[int]

    @property
    def wrong_values(self) -> Dict[int, int]:
        return {c: v for c, (_t, v) in self.deliveries.items()
                if v != self.reference}

    @property
    def confirmed(self) -> bool:
        """True when the replay reproduces *some* property violation."""
        return bool(self.wrong_values or self.double_delivered
                    or self.hung)

    def summary(self) -> str:
        if not self.confirmed:
            return (f"replay clean: all cores delivered "
                    f"{self.reference}")
        parts = []
        if self.wrong_values:
            parts.append(f"wrong values {self.wrong_values} "
                         f"(reference {self.reference})")
        if self.double_delivered:
            parts.append(f"double delivery to {self.double_delivered}")
        if self.hung:
            parts.append(f"cores {self.hung} never delivered")
        return "replay CONFIRMED: " + "; ".join(parts)

    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "reference": self.reference,
                "deliveries": {c: list(tv)
                               for c, tv in self.deliveries.items()},
                "double_delivered": list(self.double_delivered),
                "hung": list(self.hung), "confirmed": self.confirmed}


def replay_collective(rows: int, cols: int, kind: str,
                      schedule: Sequence[Tuple[int, int, int]], *,
                      width: int = 1, mutation: Optional[str] = None,
                      stuck: Optional[Dict[str, int]] = None,
                      integrity: str = "off", integrity_budget: int = 3,
                      injections: Sequence[Tuple[int, int, int]] = (),
                      max_cycles: int = 4096) -> CollectiveReplayResult:
    """Drive a real :class:`CollectiveNetwork` with a model schedule.

    ``barreg_write_cycles=0`` makes an arrival scheduled at cycle *t*
    visible to that same cycle's fabric tick, so model tick *i* and
    engine cycle *i* coincide.  ``injections`` replays the adversary's
    miscounts: each ``(cycle, master, delta)`` perturbs that master's
    counting line on the matching fabric tick (ticks counted from the
    first, exactly the model's cycle numbering).  The network is
    unhardened: the point is to confirm the raw violation, not to watch
    the watchdog mask it.
    """
    engine = Engine()
    stats = StatsRegistry(rows * cols)
    gl = GLineConfig(barreg_write_cycles=0)
    cc = CollectiveConfig(enabled=True, value_width=width,
                          integrity=integrity,
                          integrity_retry_budget=integrity_budget)
    net = CollectiveNetwork(engine, stats, rows, cols, gl, cc,
                            mutation=mutation)
    for suffix, level in (stuck or {}).items():
        for line in net.lines:
            if line.name.endswith(suffix):
                line.stuck = level
    if injections:
        targets = [m for m in net.fabric._all_masters()
                   if m.tx is not None]
        by_tick: Dict[int, List[Tuple[int, int]]] = {}
        for cyc, master, delta in injections:
            by_tick.setdefault(cyc, []).append((master, delta))
        tick_no = [0]

        def adversary(lines) -> None:
            for master, delta in by_tick.get(tick_no[0], ()):
                targets[master].tx.count_delta = delta
            tick_no[0] += 1
        net.fabric.perturb_hook = adversary

    deliveries: Dict[int, Tuple[int, int]] = {}
    double: List[int] = []

    def make_resume(cid: int):
        def resume(value: object = None) -> None:
            if cid in deliveries:
                double.append(cid)
            # FAILOVER bounces ride through as-is (counted as a wrong
            # value by the caller's checks, which is what they are from
            # the schedule's point of view).
            deliveries[cid] = (
                engine.now,
                int(value) if isinstance(value, int) else value,
            )  # type: ignore[assignment]
        return resume

    values = [0] * (rows * cols)
    for cycle, local, value in schedule:
        values[local] = value
        engine.schedule_at(cycle, net.arrive, local, kind, value,
                           make_resume(local))
    engine.run(until=max_cycles)
    reference = ops.reference_reduce(kind, values, width)
    hung = [c for c in range(rows * cols) if c not in deliveries]
    return CollectiveReplayResult(kind=kind, reference=reference,
                                  deliveries=deliveries,
                                  double_delivered=double, hung=hung)
