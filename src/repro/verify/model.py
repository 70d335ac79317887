"""Model extraction: the G-line barrier as a finite transition system.

This module reduces the Figure-4 controllers of the barrier kind of
:mod:`repro.collectives.fabric`, the wire/S-CSMA semantics of
:mod:`repro.gline.gline` and the watchdog/failover machinery of
:mod:`repro.gline.network` to a compact, hashable state -- a ``bytes``
string of small registers -- plus one deterministic *tick* per step.  The
explorer (:mod:`repro.verify.explore`) enumerates every arrival
interleaving on top of it; the conformance bridge
(:mod:`repro.verify.conformance`) replays any path cycle-for-cycle on the
real event-driven simulator.

State layout (all single bytes)::

    per row r (R blocks):   Scnt Mcnt flag rel_trig  Ma Mr Mcd sv_sent
                            then per horizontal slave: a r signaling cd
    column-master block:    Scnt Mcnt done validating
    tail:                   since_all wd retries quarantined
                            row_validated episodes_done
                            recovery_state probe_timer probation_left
                            flaps probe_fails glitch_armed degraded_ever

``a``/``r`` (``Ma``/``Mr`` for the row master) count a core's barrier
*arrivals* and *releases*; ``bar_reg`` is set exactly when ``a == r + 1``,
so it needs no byte of its own.  ``cd`` is a one-step cooldown after a
release mirroring the >= 1-cycle gap (``barreg_write_cycles``) before a
re-arrival can become visible.  ``since_all`` counts ticks since every
core of the in-flight episode arrived -- the register behind the paper's
4-cycle completion theorem.  ``wd`` is the armed watchdog's remaining
ticks (0 = idle).

One model step = deliver a chosen set of arrivals (the environment
action), run the watchdog bookkeeping, then execute one network tick with
the sub-phase order of ``CollectiveFabric.tick`` on the barrier kind:
assert (each row's master, then its slaves; the column last, so the
release it hands row 0 is consumed next tick), fault injection, the
hardened release-line guard, sample (the column master reads row 0's
flag as latched at the end of the previous tick, as it reads every other
row's through a column slave), the hand-offs -- the single-row
degenerate release among them -- then, in ``GLineBarrierNetwork._tick``,
release completion and fault handling.
Cycle-accuracy is exact along fault-free paths; under fault scenarios the
model collapses the network's dormant cycles and is therefore
behavior-equivalent rather than cycle-identical (see
``docs/verification.md``).

Recovery scenarios (``scenario.recovery``) extend the tail with the
probe/probation FSM of :mod:`repro.gline.recovery`: ``recovery_state``
is HEALTHY/DEGRADED/PROBATION/RETIRED (the transient PROBING episode is
folded into the instant the probe timer expires -- the model is
behavior-equivalent, not cycle-identical, under faults anyway), the
probe timer abstracts the exponential backoff to the constant
``probe_backoff``, and re-admission is deferred to an episode boundary
exactly as the sticky software cohort in
:class:`~repro.gline.barrier.GLBarrier` defers it on the real chip.  A
scenario's one-shot ``glitch`` is an extra environment action: the
explorer fires it at every possible step, forcing the damaged TX wire
high for one cycle so the S-CSMA count lands exactly on the gather
target with a core missing.

Symmetry reduction: horizontal slaves within a row are interchangeable,
as are entire rows 1..R-1 (row 0 hosts the column master and is
special) unless the scenario damages a specific row >= 1.  States keep
their core labels -- byte offsets map to mesh core ids -- and
:meth:`GLBarrierModel.key` is their canonical form (slave blocks sorted
within each row, then rows 1..R-1 sorted).  The explorer indexes states
by key, which shrinks the reachable space by roughly the product of the
per-row factorials while preserving all checked properties, which are
permutation-invariant; and :meth:`~GLBarrierModel.actions` offers one
action per symmetry class, so a path's own actions name the concrete
cores that arrive.
"""

from __future__ import annotations

from itertools import chain, product
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from .scenarios import FAULT_FREE, FaultScenario, Mutation, get_mutation

# Row-block register offsets.
SC, MC, FL, RT, MA, MR, MCD, SVS = range(8)
ROW_FIXED = 8
#: Per-slave sub-block: arrivals, releases, signaling, cooldown.
SL_A, SL_R, SL_SIG, SL_CD = range(4)
SLAVE = 4
#: Column-master block offsets (relative to ``mv_off``).
V_SC, V_MC, V_DONE, V_VAL = range(4)
MV = 4
#: Tail offsets (relative to ``tail_off``).  The recovery bytes stay 0
#: for non-recovery scenarios, so canonical state counts are unchanged.
(T_SA, T_WD, T_RET, T_Q, T_RV, T_EPS,
 T_RST, T_PRT, T_PBL, T_FLP, T_PRF, T_GL, T_DEG) = range(13)
TAIL = 13

#: ``T_RST`` recovery-state encoding.
R_HEALTHY, R_DEGRADED, R_PROBATION, R_RETIRED = range(4)

#: Properties the model can report violated.
P_SAFETY = "safety"
P_EXACTLY_ONCE = "exactly-once"
P_DEADLOCK = "deadlock-freedom"
P_FOUR_CYCLE = "four-cycle"
#: Recovery-only properties (reported only when ``scenario.recovery``).
#: Bounded recovery: a degraded network always has a probe pending, so
#: it re-admits or retires within ``max_probes * probe_backoff`` steps
#: of the wires healing.  Flap bound: failed re-admissions never exceed
#: ``max_flaps`` before the permanent quarantine engages.
P_RECOVERY = "bounded-recovery"
P_FLAP = "flap-bound"

#: Cap on ``since_all`` so fault scenarios (which legitimately exceed the
#: completion bound while the watchdog counts down) keep the byte finite.
_SA_CAP = 250

#: An environment action: the mesh core ids (``row * cols + col``,
#: ascending) whose arrivals land this step, and whether the armed
#: one-shot glitch fires.
Action = Tuple[Tuple[int, ...], bool]


class PropertyViolation(Exception):
    """Raised by a checker's ``step`` (:meth:`GLBarrierModel.step`,
    :meth:`~repro.verify.collectives.CollectiveModel.step`) when a
    transition breaks a checked property; the explorer turns it into a
    counterexample."""

    def __init__(self, prop: str, message: str):
        super().__init__(f"{prop}: {message}")
        self.prop = prop
        self.message = message


class GLBarrierModel:
    """The G-line barrier network of one mesh as a transition system.

    :param rows: mesh rows (1..7, the S-CSMA electrical limit).
    :param cols: mesh columns (1..7).
    :param scenario: static fault + hardening configuration.
    :param mutation: name of a deliberate FSM bug from
        :data:`~repro.verify.scenarios.MUTATIONS`, or ``None``.
    :param episodes: barrier episodes each core must complete.
    :param symmetric: let :meth:`key` fold states that differ only by
        interchangeable cores (slave/row sorting).  Disable to index every
        labelled state on its own.
    """

    def __init__(self, rows: int, cols: int, *,
                 scenario: FaultScenario = FAULT_FREE,
                 mutation: Optional[str] = None,
                 episodes: int = 1,
                 symmetric: bool = True):
        if not (1 <= rows <= 7 and 1 <= cols <= 7):
            raise ValueError(f"mesh {rows}x{cols} outside the 7x7 S-CSMA "
                             f"limit of one G-line network")
        if rows * cols < 2:
            raise ValueError("a 1x1 mesh has no barrier to check")
        if not 1 <= episodes <= 16:
            raise ValueError(f"episodes must be 1..16, got {episodes}")
        reason = scenario.applicable(rows, cols)
        if reason is not None:
            raise ValueError(f"scenario {scenario.name!r}: {reason}")
        self.rows = rows
        self.cols = cols
        self.scenario = scenario
        self.episodes = episodes
        self.symmetric = symmetric
        self.mutation: Optional[Mutation] = \
            get_mutation(mutation) if mutation is not None else None
        if self.mutation is not None:
            reason = self.mutation.applicable(rows, cols)
            if reason is not None:
                raise ValueError(
                    f"mutation {self.mutation.name!r}: {reason}")
            if self.mutation.target == "shadow" and not scenario.recovery:
                raise ValueError(
                    f"mutation {self.mutation.name!r} needs a recovery "
                    f"scenario (it disables probation's shadow check)")

        self.num_cores = rows * cols
        self.num_slaves_h = cols - 1
        self.num_slaves_v = rows - 1
        self.hardened = scenario.hardened
        self.budget = scenario.watchdog_budget
        self.max_retries = scenario.watchdog_retries

        # Gather thresholds; a mutation shaves one off exactly as
        # ``Mutation.apply_to_network`` shaves the real ``num_slaves``.
        self.mh_target = self.num_slaves_h
        self.mv_target = self.num_slaves_v
        if self.mutation is not None:
            if self.mutation.target == "mh":
                self.mh_target -= 1
            elif self.mutation.target == "mv":
                self.mv_target -= 1
        #: Scnt caps: one past the overshoot threshold is behaviorally
        #: absorbing (``== target`` stays false, ``> target`` stays true).
        self.mh_cap = self.mh_target + 1
        self.mv_cap = self.mv_target + 1

        # Recovery FSM parameters (see repro.gline.recovery).
        self.recovery = scenario.recovery
        self.probation_barriers = scenario.probation_barriers
        self.max_flaps = scenario.max_flaps
        self.probe_backoff = scenario.probe_backoff
        self.max_probes = scenario.max_probes
        self.heal = scenario.heal
        self.glitch_armed = scenario.glitch_role is not None
        self.glitch_row = scenario.glitch_row
        #: The planted bug: probation runs without the shadow check.
        self.shadow_mutated = (self.mutation is not None
                               and self.mutation.target == "shadow")

        # State layout.
        self.row_size = ROW_FIXED + SLAVE * self.num_slaves_h
        self.mv_off = rows * self.row_size
        self.tail_off = self.mv_off + MV
        self.size = self.tail_off + TAIL

        # Every core's arrival, release and cooldown byte by mesh core id
        # (column 0 is the row master); and what the key sorts: each
        # row's slave blocks, behind the row's fixed registers.
        #: Each row's slave block offsets.
        self._slave_offs: List[List[int]] = []
        self._core_offs: List[Tuple[int, int, int]] = []
        self._key_rows: List[Tuple[slice, List[slice]]] = []
        for r in range(rows):
            base = r * self.row_size
            sb = base + ROW_FIXED
            self._slave_offs.append([sb + i * SLAVE
                                     for i in range(self.num_slaves_h)])
            self._core_offs.append((base + MA, base + MR, base + MCD))
            self._core_offs += [(o + SL_A, o + SL_R, o + SL_CD)
                                for o in self._slave_offs[-1]]
            self._key_rows.append((slice(base, sb), [
                slice(o, o + SLAVE) for o in self._slave_offs[-1]]))
        self._arrivals = itemgetter(*[a for a, _, _ in self._core_offs])
        self._releases = itemgetter(*[r for _, r, _ in self._core_offs])
        self._cooldowns = [cd for _, _, cd in self._core_offs]

        # Static per-wire faults: role -> (stuck | None, count_delta).
        self._fault: Dict[Tuple[str, int], Tuple[Optional[int], int]] = {}
        if scenario.role is not None:
            row = scenario.row if scenario.role.startswith("row_") else 0
            self._fault[(scenario.role, row)] = (scenario.stuck,
                                                 scenario.count_delta)

        #: Row symmetry is sound unless the scenario pins a fault (or the
        #: one-shot glitch) to a specific row >= 1 (row 0 is never sorted).
        self.sort_rows = symmetric and rows > 2 and not (
            scenario.role in ("row_tx", "row_rel")
            and scenario.row >= 1) and not (
            scenario.glitch_role is not None and scenario.glitch_row >= 1)
        #: Whether :meth:`key` has anything to sort.
        self._keyed = symmetric and (self.num_slaves_h > 1
                                     or self.sort_rows)

        #: The 4-cycle theorem is asserted only on healthy wires; the
        #: hardened validation stage legitimately costs one extra cycle,
        #: and recovery scenarios route episodes through software.
        self.check_four_cycle = scenario.is_fault_free \
            and not scenario.recovery
        if rows == 1:
            self.completion_bound = 2 + (1 if self.hardened else 0)
        else:
            self.completion_bound = 4 + (1 if self.hardened else 0)

        #: Largest completion latency observed by any :meth:`step` of this
        #: instance (ticks from all-arrived to release).
        self.max_completion_ticks = 0

    # ------------------------------------------------------------------ #
    def fingerprint(self) -> Dict[str, object]:
        """Content identity of this model (shard cache keys)."""
        return {"kind": "gl-barrier-model",
                "rows": self.rows, "cols": self.cols,
                "scenario": self.scenario.to_dict(),
                "mutation": (self.mutation.name
                             if self.mutation is not None else None),
                "episodes": self.episodes,
                "symmetric": self.symmetric}

    # ------------------------------------------------------------------ #
    # State helpers
    # ------------------------------------------------------------------ #
    def initial(self) -> bytes:
        s = bytearray(self.size)
        for r in range(self.rows):
            base = r * self.row_size + ROW_FIXED
            for i in range(self.num_slaves_h):
                s[base + i * SLAVE + SL_SIG] = 1
        t = self.tail_off
        if self.recovery and self.scenario.start == "probation":
            s[t + T_RST] = R_PROBATION
            s[t + T_PBL] = self.probation_barriers
        if self.glitch_armed:
            s[t + T_GL] = 1
        return bytes(s)

    def key(self, state: bytes) -> bytes:
        """The canonical form of *state*: each row's slave blocks sorted,
        then rows 1..R-1 sorted when they are interchangeable.  States
        with one key differ only by a relabelling of interchangeable
        cores; without ``symmetric`` the key is the state itself."""
        if not self._keyed:
            return state
        rows = self._sorted_slaves(state)
        if self.sort_rows:
            rows[1:] = sorted(rows[1:])
        return b"".join(rows) + state[self.mv_off:]

    def _sorted_slaves(self, state: bytes) -> List[bytes]:
        """Each row's registers with its slave blocks sorted."""
        return [state[fixed] + b"".join(sorted([state[b] for b in blocks]))
                for fixed, blocks in self._key_rows]

    def _key_order(self, state: bytes) -> List[int]:
        """The rows of *state* in the order :meth:`key` lists them (tied
        rows are identical up to their slaves' labels)."""
        if not self.sort_rows:
            return list(range(self.rows))
        rows = self._sorted_slaves(state)
        return [0] + sorted(range(1, self.rows), key=rows.__getitem__)

    def releases(self, state: bytes) -> Tuple[int, ...]:
        """How many releases each core has received, by mesh core id."""
        return tuple(self._releases(state))

    def _waiting(self, s: Sequence[int]) -> List[bool]:
        """Whether each core's bar_reg is set, by mesh core id."""
        return [a == r + 1 for a, r in zip(self._arrivals(s),
                                           self._releases(s))]

    def _all_waiting(self, s: Sequence[int]) -> bool:
        return all(self._waiting(s))

    def _any_waiting(self, s: Sequence[int]) -> bool:
        return any(self._waiting(s))

    def _waiting_count(self, s: Sequence[int]) -> int:
        return sum(self._waiting(s))

    def is_complete(self, s: Sequence[int]) -> bool:
        """All episodes done and every core released from the last one."""
        return s[self.tail_off + T_EPS] == self.episodes

    # ------------------------------------------------------------------ #
    # Environment actions
    # ------------------------------------------------------------------ #
    def _eligible(self, a: int, r: int, cd: int) -> bool:
        return a == r and a < self.episodes and cd == 0

    def actions(self, state: bytes) -> List[Action]:
        """All arrival choices from *state*, one per symmetry class, in
        deterministic order.

        Index 0 is always the empty (pure-tick) action; the last index
        delivers every eligible arrival at once.  Within a row, eligible
        slaves are grouped by their (identical) register block and the
        action picks a *count* per group, taken lowest core id first --
        the symmetry-reduced form of choosing subsets.  Rows combine in
        the order :meth:`key` lists them, so an action's index is the
        same in every state of one key.
        """
        per_row: List[List[Tuple[int, ...]]] = []
        for r, slave_offs in enumerate(self._slave_offs):
            first = r * self.cols
            m_a, m_r, m_cd = self._core_offs[first]
            masters: List[Tuple[int, ...]] = [()]
            if self._eligible(state[m_a], state[m_r], state[m_cd]):
                masters.append((first,))
            classes: Dict[bytes, List[int]] = {}
            for i, off in enumerate(slave_offs):
                if self._eligible(state[off + SL_A], state[off + SL_R],
                                  state[off + SL_CD]):
                    classes.setdefault(state[off: off + SLAVE],
                                       []).append(first + 1 + i)
            groups = [classes[blk] for blk in sorted(classes)]
            picks = [tuple(chain.from_iterable(
                         g[:n] for g, n in zip(groups, counts)))
                     for counts in product(*[range(len(g) + 1)
                                             for g in groups])]
            per_row.append([m + p for m in masters for p in picks])
        acts: List[Action] = [
            (tuple(sorted(chain.from_iterable(combo))), False)
            for combo in product(*[per_row[r]
                                   for r in self._key_order(state)])]
        if state[self.tail_off + T_GL]:
            # The one-shot glitch may fire alongside any arrival choice;
            # un-glitched variants come first so the last action stays
            # the maximal one (arrivals + glitch = ``max_action``).
            acts += [(cores, True) for cores, _ in acts]
        return acts

    def max_action(self, state: bytes) -> Action:
        """The action delivering every eligible arrival (equals the last
        entry of :meth:`actions`, built without full enumeration)."""
        return (tuple(cid for cid, (a, r, cd) in enumerate(self._core_offs)
                      if self._eligible(state[a], state[r], state[cd])),
                bool(state[self.tail_off + T_GL]))

    # ------------------------------------------------------------------ #
    # One transition
    # ------------------------------------------------------------------ #
    def step(self, state: bytes, action: Action) -> bytes:
        """Deliver *action*'s arrivals, then run one network tick.

        Raises :class:`ValueError` when *state* does not admit the action
        (a core outside the mesh, a core not eligible to arrive, a glitch
        not armed) and :class:`PropertyViolation` when the transition
        breaks safety, exactly-once delivery or the completion bound.
        """
        cores, glitch = action
        t = self.tail_off
        if glitch and not state[t + T_GL]:
            raise ValueError("glitch fired but not armed")
        s = bytearray(state)
        for cid in cores:
            if not 0 <= cid < self.num_cores:
                raise ValueError(f"core {cid} outside the mesh")
            a, r, cd = self._core_offs[cid]
            if not self._eligible(s[a], s[r], s[cd]):
                raise ValueError(f"core {cid} is not eligible to arrive")
            s[a] += 1
        self._post_arrival(s)
        if glitch:
            s[t + T_GL] = 0
        return bytes(self._advance(s, glitch))

    def _post_arrival(self, s: bytearray) -> None:
        """Arm the all-arrived watchdog exactly when the arrival that set
        the last bar_reg lands (``_set_barreg`` in the real network)."""
        t = self.tail_off
        if self.hardened and not s[t + T_Q] and s[t + T_WD] == 0 \
                and self._all_waiting(s):
            # +1 compensates the same-step decrement in _advance: the
            # timer fires pre-tick ``budget`` ticks after arming.
            s[t + T_WD] = self.budget + 1

    # -- watchdog + tick ------------------------------------------------ #
    def _advance(self, s: bytearray, glitch: bool = False) -> bytearray:
        t = self.tail_off
        if s[t + T_WD]:
            s[t + T_WD] -= 1
            if s[t + T_WD] == 0:
                # Timer expiry (network dormant in every scenario that
                # reaches it): handle the fault instead of ticking, and
                # resume clocking next step -- the real retry schedules
                # its first tick one line-latency later.
                if not s[t + T_Q] and self._any_waiting(s):
                    self._handle_fault(s)
                    self._end_of_step(s, [])
                    return s
        if self.recovery and s[t + T_RST] == R_DEGRADED and s[t + T_PRT]:
            s[t + T_PRT] -= 1
            if s[t + T_PRT] == 0:
                self._probe(s)
        if s[t + T_Q]:
            self._sw_tick(s)
        else:
            self._hw_tick(s, glitch)
        return s

    # -- recovery FSM (repro.gline.recovery, folded to tick granularity) #
    def _fault_active(self, s: Sequence[int]) -> bool:
        """Whether the scenario's static fault perturbs the wires now.

        The heal modes make the fault deterministically intermittent:
        ``after-degrade`` ends the burst at the first failover,
        ``off-degraded`` is a load-correlated fault invisible to idle
        probes (active except while degraded)."""
        if not self._fault:
            return False
        if not self.recovery or self.heal == "never":
            return True
        t = self.tail_off
        if self.heal == "after-degrade":
            return not s[t + T_DEG]
        return s[t + T_RST] != R_DEGRADED

    def _probe(self, s: bytearray) -> None:
        """The probe timer expired: run the idle-cycle wire test.

        Passes exactly when the static fault is inactive (the real probe
        drives every line and checks level/count both ways; any live
        stuck-at or miscount trips it).  Re-admission waits for an
        episode boundary -- the sticky software cohort on the real chip
        keeps a mid-flight episode software either way."""
        t = self.tail_off
        if not self._fault_active(s):
            if self._any_waiting(s):
                s[t + T_PRT] = self.probe_backoff
                return
            s[t + T_RST] = R_PROBATION
            s[t + T_PBL] = self.probation_barriers
            s[t + T_PRF] = 0
            s[t + T_Q] = 0
            self._reset_fsm(s)
            return
        s[t + T_PRF] += 1
        if s[t + T_PRF] > self.max_probes:
            raise PropertyViolation(
                P_RECOVERY,
                f"{s[t + T_PRF]} failed probes exceed the "
                f"max_probes bound of {self.max_probes}")
        if s[t + T_PRF] >= self.max_probes:
            s[t + T_RST] = R_RETIRED
        else:
            s[t + T_PRT] = self.probe_backoff

    def _sw_tick(self, s: bytearray) -> None:
        """Quarantined network: episodes complete over the software
        fallback barrier, which releases everyone once all have arrived
        (its own correctness is covered by the schedule-permutation
        tests in ``tests/sync``)."""
        released: List[Tuple[int, int]] = []
        if self._all_waiting(s):
            for r in range(self.rows):
                released.append((r, -1))
                released.extend((r, i) for i in range(self.num_slaves_h))
        self._end_of_step(s, released)

    def _hw_tick(self, s: bytearray, glitch: bool = False) -> None:
        rows, nsh = self.rows, self.num_slaves_h
        t, mv = self.tail_off, self.mv_off
        released: List[Tuple[int, int]] = []  # (row, slave_i); -1=master

        # ---- assert phase: rows (master, slaves), then the column ---- #
        drove_h = [False] * rows
        row_rel_level = [False] * rows
        row_tx_count = [0] * rows
        col_tx_count = 0
        col_rel_level = False
        drove_v = False
        for r in range(rows):
            base = r * self.row_size
            if s[base + RT]:
                if nsh:
                    row_rel_level[r] = True
                    drove_h[r] = True
                s[base + SC] = s[base + MC] = 0
                s[base + FL] = s[base + RT] = 0
                if s[base + MA] == s[base + MR] + 1:
                    released.append((r, -1))
                # on_release wiring hooks.
                if r == 0 and rows > 1:
                    s[mv + V_SC] = s[mv + V_MC] = s[mv + V_DONE] = 0
                elif r >= 1:
                    s[base + SVS] = 0
        for r, offs in enumerate(self._slave_offs):
            for off in offs:
                if s[off + SL_SIG] and s[off + SL_A] == s[off + SL_R] + 1:
                    row_tx_count[r] += 1
                    s[off + SL_SIG] = 0
        if rows > 1:
            for r in range(1, rows):
                base = r * self.row_size
                if not s[base + SVS] and s[base + FL]:
                    col_tx_count += 1
                    s[base + SVS] = 1
            if s[mv + V_DONE]:
                col_rel_level = True
                drove_v = True
                s[RT] = 1  # row 0's release trigger, consumed next tick
                s[mv + V_SC] = s[mv + V_MC] = s[mv + V_DONE] = 0

        # ---- wire faults land between assert and sample -------------- #
        row_tx_eff = list(row_tx_count)
        col_tx_eff = col_tx_count
        if self._fault_active(s):
            for r in range(rows):
                stuck, delta = self._fault.get(("row_tx", r), (None, 0))
                if stuck is not None:
                    row_tx_eff[r] = nsh if stuck else 0
                elif delta:
                    row_tx_eff[r] = min(max(row_tx_count[r] + delta, 0),
                                        nsh)
                stuck, _ = self._fault.get(("row_rel", r), (None, 0))
                if stuck is not None:
                    row_rel_level[r] = bool(stuck)
            stuck, delta = self._fault.get(("col_tx", 0), (None, 0))
            if stuck is not None:
                col_tx_eff = self.num_slaves_v if stuck else 0
            elif delta:
                col_tx_eff = min(max(col_tx_count + delta, 0),
                                 self.num_slaves_v)
            stuck, _ = self._fault.get(("col_rel", 0), (None, 0))
            if stuck is not None:
                col_rel_level = bool(stuck)
        if glitch:
            # One-shot forced-high on the glitch row's TX wire: the
            # S-CSMA count reads the full attached-transmitter count.
            row_tx_eff[self.glitch_row] = nsh

        # ---- hardened spurious-release guard ------------------------- #
        spurious = False
        if self.hardened:
            for r in range(rows):
                if row_rel_level[r] and not drove_h[r]:
                    row_rel_level[r] = False
                    spurious = True
            if col_rel_level and not drove_v:
                col_rel_level = False
                spurious = True

        # ---- sample phase: the column master reads row 0's old flag -- #
        # The release stage cleared the master's bar_reg during the
        # assert phase, but the model's MA/MR accounting only happens in
        # _end_of_step -- so the `MA == MR + 1` predicate is stale for
        # masters released this tick and must not re-latch Mcnt.
        rel_masters = {row for row, slave_i in released if slave_i < 0}
        suspected = False
        if rows > 1:
            s[mv + V_SC] = min(s[mv + V_SC] + col_tx_eff, self.mv_cap)
            if s[FL]:  # row-0 flag as latched before row 0 samples
                s[mv + V_MC] = 1
            if self.hardened and s[mv + V_SC] > self.mv_target:
                suspected = True
                s[mv + V_VAL] = 0
            elif not s[mv + V_DONE] and s[mv + V_MC] == 1 \
                    and s[mv + V_SC] == self.mv_target:
                if self.hardened and not s[mv + V_VAL]:
                    s[mv + V_VAL] = 1
                else:
                    s[mv + V_VAL] = 0
                    s[mv + V_DONE] = 1
        for r in range(rows):
            base = r * self.row_size
            if s[base + FL]:
                if self.hardened and nsh:
                    s[base + SC] = min(s[base + SC] + row_tx_eff[r],
                                       self.mh_cap)
                    if s[base + SC] > self.mh_target:
                        suspected = True
                continue
            if nsh:
                s[base + SC] = min(s[base + SC] + row_tx_eff[r],
                                   self.mh_cap)
            if r not in rel_masters and s[base + MA] == s[base + MR] + 1:
                s[base + MC] = 1
            if self.hardened and s[base + SC] > self.mh_target:
                suspected = True
                continue
            if s[base + MC] == 1 and s[base + SC] == self.mh_target:
                s[base + FL] = 1
        if rows > 1:
            for r in range(1, rows):
                base = r * self.row_size
                if s[base + SVS] and col_rel_level:
                    s[base + RT] = 1
        for r, offs in enumerate(self._slave_offs):
            if not row_rel_level[r]:
                continue
            for i, off in enumerate(offs):
                if not s[off + SL_SIG]:
                    s[off + SL_SIG] = 1
                    if s[off + SL_A] == s[off + SL_R] + 1:
                        released.append((r, i))

        # ---- degenerate single-row release --------------------------- #
        fault = self.hardened and (spurious or suspected)
        if not fault and rows == 1 and s[FL] and not s[RT]:
            if self.hardened and not s[t + T_RV]:
                s[t + T_RV] = 1
            else:
                s[RT] = 1

        # ---- hardened release atomicity ------------------------------ #
        # A legitimate release pulse covers every waiting core in one
        # step; a shortfall means a release line dropped the pulse for
        # part of the mesh (stuck low) while the masters -- who release
        # their own cores at drive time -- ran ahead.  The released
        # cores cannot be recalled, so the hardened network fails the
        # episode over as one software cohort (mirrors the simulator's
        # ``_complete_release`` partial-release guard).
        if self.hardened and released \
                and len(released) != self._waiting_count(s):
            self._failover(s)
            self._end_of_step(s, [])
            return

        # ---- probation shadow cross-check ---------------------------- #
        # A release that does not cover the full cohort means the wires
        # produced a count the software arrival shadow disagrees with:
        # withhold it and fail the episode over (a flap).  The planted
        # ``shadow`` mutation skips this, so the partial release reaches
        # the accounting below and safety is lost.
        if (self.recovery and s[t + T_RST] == R_PROBATION
                and not self.shadow_mutated and released
                and len(released) != self.num_cores):
            self._failover(s)
            self._end_of_step(s, [])
            return

        self._end_of_step(s, released)
        if fault and self._any_waiting(s):
            self._handle_fault(s)

    # -- fault handling -------------------------------------------------- #
    def _handle_fault(self, s: bytearray) -> None:
        t = self.tail_off
        if self.recovery and s[t + T_RST] == R_PROBATION:
            # Zero tolerance during probation: any watchdog suspicion
            # re-degrades immediately, no retry burn-down (a flap).
            self._failover(s)
            return
        if s[t + T_RET] < self.max_retries:
            s[t + T_RET] += 1
            self._reset_fsm(s)
            if self._all_waiting(s):
                s[t + T_WD] = self.budget  # fires `budget` steps later
        else:
            self._failover(s)

    def _reset_fsm(self, s: bytearray) -> None:
        for r in range(self.rows):
            base = r * self.row_size
            s[base + SC] = s[base + MC] = 0
            s[base + FL] = s[base + RT] = 0
            s[base + SVS] = 0
            sb = base + ROW_FIXED
            for i in range(self.num_slaves_h):
                s[sb + i * SLAVE + SL_SIG] = 1
        m = self.mv_off
        s[m + V_SC] = s[m + V_MC] = s[m + V_DONE] = s[m + V_VAL] = 0
        s[self.tail_off + T_RV] = 0

    def _failover(self, s: bytearray) -> None:
        """Quarantine: waiting cores bounce to the software fallback and
        stay logically waiting until the software episode completes.

        With recovery, quarantine is DEGRADED (probe pending) instead of
        terminal; a probation failover is a *flap*, and the flap/probe
        bounds retire the network permanently (back to PR 2 semantics)."""
        t = self.tail_off
        if self.recovery and s[t + T_RST] != R_RETIRED:
            if s[t + T_RST] == R_PROBATION:
                s[t + T_FLP] += 1
                if s[t + T_FLP] > self.max_flaps:
                    raise PropertyViolation(
                        P_FLAP,
                        f"{s[t + T_FLP]} re-admission flaps exceed the "
                        f"max_flaps bound of {self.max_flaps}")
                if s[t + T_FLP] >= self.max_flaps:
                    s[t + T_RST] = R_RETIRED
                    s[t + T_PRT] = 0
                else:
                    s[t + T_RST] = R_DEGRADED
                    s[t + T_PRT] = self.probe_backoff
                    s[t + T_PRF] = 0
            else:
                s[t + T_RST] = R_DEGRADED
                s[t + T_PRT] = self.probe_backoff
                s[t + T_PRF] = 0
            s[t + T_PBL] = 0
            s[t + T_DEG] = 1
        s[t + T_Q] = 1
        s[t + T_WD] = 0
        s[t + T_RET] = 0
        self._reset_fsm(s)

    # -- release accounting / property checks ---------------------------- #
    def _end_of_step(self, s: bytearray,
                     released: List[Tuple[int, int]]) -> None:
        t = self.tail_off
        min_arrived = min(self._arrivals(s))
        cooling: List[int] = []
        for row, slave_i in released:
            if slave_i < 0:
                base = row * self.row_size
                off_a, off_r = base + MA, base + MR
                cooling.append(base + MCD)
            else:
                blk = self._slave_offs[row][slave_i]
                off_a, off_r = blk + SL_A, blk + SL_R
                cooling.append(blk + SL_CD)
            new_r = s[off_r] + 1
            if new_r > s[off_a]:
                raise PropertyViolation(
                    P_EXACTLY_ONCE,
                    f"core at row {row}, slot {slave_i} delivered a "
                    f"release for episode {new_r} it never arrived at")
            if min_arrived < new_r:
                raise PropertyViolation(
                    P_SAFETY,
                    f"core at row {row}, slot {slave_i} released from "
                    f"episode {new_r} while other cores are still "
                    f"missing (min arrivals {min_arrived})")
            s[off_r] = new_r

        # Cooldowns: a released core's re-arrival is visible no earlier
        # than two steps later (write latency), matching barreg timing.
        for off in self._cooldowns:
            s[off] = 0
        for off in cooling:
            s[off] = 1

        # Episode completion + the 4-cycle theorem.
        min_released = min(self._releases(s))
        if min_released > s[t + T_EPS]:
            if self.check_four_cycle and not s[t + T_Q]:
                ticks = s[t + T_SA] + 1
                self.max_completion_ticks = max(
                    self.max_completion_ticks, ticks)
                if ticks > self.completion_bound:
                    raise PropertyViolation(
                        P_FOUR_CYCLE,
                        f"episode completed {ticks} ticks after the last "
                        f"arrival (bound {self.completion_bound})")
            if self.recovery and not s[t + T_Q] \
                    and s[t + T_RST] == R_PROBATION and s[t + T_PBL]:
                s[t + T_PBL] -= 1
                if s[t + T_PBL] == 0:
                    s[t + T_RST] = R_HEALTHY
            s[t + T_EPS] = min_released
            s[t + T_SA] = 0
            s[t + T_WD] = 0
            s[t + T_RET] = 0
            s[t + T_RV] = 0
        elif not s[t + T_Q]:
            k = s[t + T_EPS] + 1
            if k <= self.episodes and min_arrived >= k:
                ticks = min(s[t + T_SA] + 1, _SA_CAP)
                if self.check_four_cycle \
                        and ticks > self.completion_bound:
                    raise PropertyViolation(
                        P_FOUR_CYCLE,
                        f"all cores arrived {ticks} ticks ago and episode "
                        f"{k} has still not completed "
                        f"(bound {self.completion_bound})")
                s[t + T_SA] = ticks
            else:
                s[t + T_SA] = 0
        else:
            s[t + T_SA] = 0

        # Bounded recovery: while degraded (and not retired) a probe is
        # always pending, so re-admission or retirement happens within
        # max_probes * probe_backoff ticks of any failover.
        if self.recovery and s[t + T_RST] == R_DEGRADED \
                and s[t + T_PRT] == 0:
            raise PropertyViolation(
                P_RECOVERY,
                "network degraded with no probe pending: recovery would "
                "never complete")
