"""The stage-gated collective tick against the full-visit tick.

:class:`ReferenceFabric` keeps the full-visit clock the fabric had
before its tick skipped stages that cannot change: ``tick`` runs the
assert and sample phases of every controller and ends the cycle of
every wire, ``_orchestrate`` checks every hand-off, ``will_act`` asks
every controller, and ``collect_integrity`` diffs fabric-wide totals
against a read-and-clear watermark.  Hypothesis scripts drive it and
:class:`CollectiveFabric` side by side: meshes up to 4x4, every kind and
integrity mode, held clusters opened with ``open_with`` (also from
inside ``on_reduced``, as the network does after a retry), watchdog
retries through ``reset_episode``, stuck, glitched and miscounted wires
(through the perturbation hook, or stuck before the episode begins),
the hardened release guard, and ``snapshot``/``restore`` round trips.
After every step the deliveries, ``snapshot()``, ``will_act()``,
``done``, ``collect_integrity()``, the wire toggles and the parked
partials must be equal.  Two planted mutations of the gating show the
comparison can fail.
"""

import pytest
from hypothesis import HealthCheck, Phase, example, given, settings
from hypothesis import strategies as st

from repro.collectives import ops
from repro.collectives.controllers import M_BC_DONE, M_DONE, S_DONE
from repro.collectives.fabric import CollectiveFabric
from repro.gline.integrity import INTEGRITY_MODES
from repro.gline.stages import StageGate


class ReferenceFabric(CollectiveFabric):
    """The fabric with its full-visit clock."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        name = self.name
        self._slave_tids = [[f"{name}.s{r}_{c}" for c in range(1, self.cols)]
                            for r in range(self.rows)]
        self._col_tids = [f"{name}.cs{r}" for r in range(1, self.rows)]
        self._int_seen = [0, 0, 0]

    def reset_episode(self, keep_operands=True):
        super().reset_episode(keep_operands)
        self._int_seen = [0, 0, 0]

    def tick(self):
        for r in range(self.rows):
            self.rmasters[r].assert_phase()
            for s, tid in zip(self.rslaves[r], self._slave_tids[r]):
                s.assert_phase(tid)
        if self.colmaster is not None:
            self.colmaster.assert_phase()
            for s, tid in zip(self.colslaves, self._col_tids):
                s.assert_phase(tid)
        if self.perturb_hook is not None:
            self.perturb_hook(self.lines)
        if self.guard:
            for m in self._all_masters():
                if m.rel is not None and not m.drove_rel \
                        and m.rel.sampled_on():
                    m.fault_suspected = True
                    m.rel.glitch_force = 0
        for r in range(self.rows):
            self.rmasters[r].sample_phase()
            for s in self.rslaves[r]:
                s.sample_phase()
        if self.colmaster is not None:
            self.colmaster.sample_phase()
            for s in self.colslaves:
                s.sample_phase()
        if self.wire_probe is not None:
            self.wire_probe(self.lines)
        for gl in self.lines:
            gl.end_cycle()
        return self._orchestrate()

    def _orchestrate(self, visit=None):
        assert self.kind is not None or not any(
            not m.idle for m in self.rmasters), "ticking a closed episode"
        k2 = ops.COMBINE_KIND[self.kind] if self.kind else "sum"
        for r in range(self.rows):
            m = self.rmasters[r]
            if m.state == M_DONE and not self._row_fed[r]:
                self._row_fed[r] = True
                if self.rows == 1:
                    self._global_done(m.result)
                else:
                    contrib = ops.stage_contrib(k2, m.result, self._row_w)
                    if r == 0:
                        self.colmaster.set_own(contrib)
                    else:
                        self.colslaves[r - 1].set_input(contrib)
        if self.colmaster is not None \
                and self.colmaster.state == M_DONE and not self._col_done:
            self._col_done = True
            self._global_done(self.colmaster.result)
        for j, cs in enumerate(self.colslaves):
            if cs.state == S_DONE:
                rm = self.rmasters[j + 1]
                if rm.state == M_DONE and self._bc_started:
                    rm.start_broadcast(cs.result)
        out = []
        for r in range(self.rows):
            base = r * self.cols
            rm = self.rmasters[r]
            if rm.state == M_BC_DONE and not self._delivered[base] \
                    and not (r == 0 and self._skip_root):
                self._delivered[base] = True
                out.append((base, rm.bc_value))
            for c, s in enumerate(self.rslaves[r], start=1):
                if s.state == S_DONE and not self._delivered[base + c]:
                    self._delivered[base + c] = True
                    out.append((base + c, s.result))
        return out

    @property
    def int_exhausted(self):
        return any(m.int_exhausted for m in self._all_masters())

    def collect_integrity(self):
        masters = self._all_masters()
        faults = sum(m.int_faults for m in masters)
        retries = sum(m.int_retries for m in masters)
        corrected = sum(m.int_corrected for m in masters)
        exhausted = any(m.int_exhausted for m in masters)
        seen = self._int_seen
        out = (faults - seen[0], retries - seen[1], corrected - seen[2],
               exhausted)
        self._int_seen = [faults, retries, corrected]
        return out

    def will_act(self):
        for r in range(self.rows):
            if self.rmasters[r].will_act():
                return True
            for s in self.rslaves[r]:
                if s.will_act():
                    return True
        if self.colmaster is not None:
            if self.colmaster.will_act():
                return True
            for s in self.colslaves:
                if s.will_act():
                    return True
        return self._orchestration_pending()

    def _orchestration_pending(self):
        for r in range(self.rows):
            if self.rmasters[r].state == M_DONE and not self._row_fed[r]:
                return True
        if self.colmaster is not None \
                and self.colmaster.state == M_DONE and not self._col_done:
            return True
        for j, cs in enumerate(self.colslaves):
            if cs.state == S_DONE and self._bc_started \
                    and self.rmasters[j + 1].state == M_DONE:
                return True
        for r in range(self.rows):
            base = r * self.cols
            rm = self.rmasters[r]
            if rm.state == M_BC_DONE and not self._delivered[base] \
                    and not (r == 0 and self._skip_root):
                return True
            for c, s in enumerate(self.rslaves[r], start=1):
                if s.state == S_DONE and not self._delivered[base + c]:
                    return True
        return False


# ---------------------------------------------------------------------- #
# Planted mutations of the gating
# ---------------------------------------------------------------------- #
class UnwokenBroadcastFabric(CollectiveFabric):
    """``start_broadcast`` leaves the stages it starts asleep."""

    def _start_broadcast(self, value):
        self._bc_started = True
        if self.colmaster is not None:
            self.colmaster.start_broadcast(value)
        self.rmasters[0].start_broadcast(value)
        for j, cs in enumerate(self.colslaves):
            if cs.state == S_DONE and self.rmasters[j + 1].state == M_DONE:
                self.rmasters[j + 1].start_broadcast(cs.result)


class SleepingForcedWireGate(StageGate):
    """Ignores a wire forced on a sleeping stage."""

    __slots__ = ()

    def forced(self, hooked):
        return super().forced(hooked) & self.awake


class SleepingForcedWireFabric(CollectiveFabric):
    """A wire forced on a sleeping stage is ignored."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._stage_gate.__class__ = SleepingForcedWireGate


# ---------------------------------------------------------------------- #
# Scripts
# ---------------------------------------------------------------------- #
#: Wire faults a script can put on a wire through the perturbation
#: hook, as the attribute and value they set: stuck-at (persists),
#: glitch and S-CSMA miscount (this cycle only), or a heal of the
#: stuck-at.
FORCES = {"stuck0": ("stuck", 0), "stuck1": ("stuck", 1),
          "glitch0": ("glitch_force", 0), "glitch1": ("glitch_force", 1),
          "count+1": ("count_delta", 1), "count-1": ("count_delta", -1),
          "heal": ("stuck", None)}


_arrive = st.tuples(st.just("arrive"), st.integers(1, 16))
_forces = st.lists(st.tuples(st.integers(0, 9),
                             st.sampled_from(sorted(FORCES))),
                  min_size=1, max_size=2)
_tick = st.tuples(st.just("tick"), st.one_of(st.just([]), _forces))
_run = st.tuples(st.just("run"), st.integers(1, 80))
#: Arrivals and ticks weigh three times the rest, so that most scripts
#: finish episodes.
_step = st.one_of(
    _arrive, _tick, _run, _arrive, _tick, _run, _arrive, _tick, _run,
    st.tuples(st.just("reset"), st.just(None)),
    st.tuples(st.just("open"), st.integers(0, 255)),
    st.tuples(st.just("snapshot"), st.just(None)),
    st.tuples(st.just("restore"), st.just(None)),
    st.tuples(st.just("next"), st.sampled_from(ops.KINDS)),
)

_script = st.fixed_dictionaries({
    "rows": st.integers(1, 4),
    "cols": st.integers(1, 4),
    "width": st.integers(1, 3),
    "kind": st.sampled_from(ops.KINDS),
    "integrity": st.sampled_from(INTEGRITY_MODES),
    "budget": st.integers(0, 2),
    "hold": st.booleans(),
    "guard": st.booleans(),
    "hook": st.booleans(),
    "stuck": st.one_of(st.just([]), st.just([]), st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 1)), min_size=1,
        max_size=1)),
    "values": st.lists(st.integers(0, 7), min_size=16, max_size=16),
    "order": st.permutations(range(16)),
    "steps": st.lists(_step, min_size=4, max_size=30),
})


class Side:
    """One fabric under a script, with what it reports to its hooks."""

    def __init__(self, cls, script):
        self.fab = fab = cls(
            script["rows"], script["cols"], script["width"], 6,
            name="f", hold_result=script["hold"],
            integrity=script["integrity"],
            integrity_budget=script["budget"])
        fab.guard = script["guard"]
        self.toggles = 0
        self.parked = []
        self.open_value = None
        self.forces = []
        fab.wire_probe = self._probe
        fab.on_reduced = self._reduced
        if script["hook"]:
            fab.perturb_hook = self._perturb
        #: Wires stuck before the first episode begins (a stuck level
        #: written directly is seen from the next entry point).
        self.stuck = script["stuck"]
        self.kind = script["kind"]
        self.values = script["values"]
        self.order = script["order"]
        self.arrived = set()
        self.saved = None

    def _probe(self, lines):
        self.toggles += sum(len(gl._asserting) for gl in lines)

    def _reduced(self, value):
        self.parked.append(value)
        if self.open_value is not None:
            # The network's retry path: the upper level already handed
            # the global result down, so the re-parked cluster reopens.
            self.fab.open_with(self.open_value)

    def _perturb(self, lines):
        for index, what in self.forces:
            if lines:
                setattr(lines[index % len(lines)], *FORCES[what])

    def observe(self, deliveries):
        fab = self.fab
        return (deliveries, fab.snapshot(), fab.will_act(), fab.done,
                fab.collect_integrity(), self.toggles, list(self.parked),
                [gl.toggles for gl in fab.lines])


def _apply(side, step):
    """Run *step* on *side*; returns the deliveries it made."""
    fab = side.fab
    what, arg = step
    out = []
    if what == "arrive":
        if fab.kind is None:
            for index, level in side.stuck:
                if fab.lines:
                    fab.lines[index % len(fab.lines)].stuck = level
            side.stuck = []
            fab.begin(side.kind)
        # The next *arg* cores, in the script's arrival order.
        waiting = [local for local in side.order
                   if local < fab.num_cores and local not in side.arrived]
        for local in waiting[:arg]:
            side.arrived.add(local)
            fab.arrive_local(local, side.values[local])
    elif what == "tick":
        side.forces = arg
        out = fab.tick()
        side.forces = []
    elif what == "run":
        for _ in range(arg):
            if not fab.will_act():
                break
            out.extend(fab.tick())
    elif what == "reset":
        fab.reset_episode(keep_operands=True)
    elif what == "open":
        if fab.hold_result and fab._global_ready:
            side.open_value = arg
            fab.open_with(arg)
    elif what == "snapshot":
        side.saved = (fab.snapshot(), set(side.arrived))
    elif what == "restore":
        if side.saved is not None:
            snap, arrived = side.saved
            fab.restore(snap)
            side.arrived = set(arrived)
    elif what == "next":
        if fab.kind is not None and fab.done:
            fab.close_episode()
            side.kind = arg
            side.arrived.clear()
            side.open_value = None
            fab.begin(arg)
    return out


def _outcome(side, step):
    try:
        return ("ok", _apply(side, step))
    except Exception as exc:
        return ("raised", type(exc).__name__, str(exc))


#: Every script ends by finishing its episode (opening a held cluster)
#: and running one more.
TAIL = [("arrive", 16), ("run", 300), ("open", 5), ("run", 300),
        ("next", "max"), ("arrive", 16), ("run", 300), ("open", 6),
        ("run", 300)]


def compare(cls, script):
    """Drive *cls* and the reference with *script*; assert they agree."""
    ref = Side(ReferenceFabric, script)
    got = Side(cls, script)
    for number, step in enumerate(script["steps"] + TAIL):
        want = _outcome(ref, step)
        have = _outcome(got, step)
        assert have == want or have[0] == want[0] == "ok", (number, step)
        if want[0] != "ok":
            return
        if step[0] == "restore":
            # The watermark behind the reference's collect_integrity()
            # is not part of a snapshot: drain both sides.
            ref.fab.collect_integrity()
            got.fab.collect_integrity()
        assert got.observe(have[1]) == ref.observe(want[1]), (number, step)


#: Row 1's gather wire is stuck high before the episode begins, and only
#: row 0 arrives: the sleeping row's master must still count the wire.
STUCK_BEFORE_BEGIN = dict(
    rows=2, cols=2, width=1, kind="sum", integrity="off", budget=0,
    hold=False, guard=False, hook=False, stuck=[(2, 1)], values=[1] * 16,
    order=list(range(16)), steps=[("arrive", 2), ("tick", []),
                                  ("tick", []), ("tick", [])])


@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(script=_script)
@example(script=STUCK_BEFORE_BEGIN)
def test_gated_tick_matches_full_visit_tick(script):
    compare(CollectiveFabric, script)


def _crafted(snap, rm_states=None, col_done=None):
    """*snap* with row masters put back in *rm_states* and the column's
    hand-off flag set to *col_done*."""
    snap = list(snap)
    if rm_states:
        rm = [list(m) for m in snap[0]]
        for r, state in rm_states.items():
            rm[r][0] = state
        snap[0] = tuple(tuple(m) for m in rm)
    if col_done is not None:
        snap[6] = col_done
    return tuple(snap)


def _episode_snapshots(hold_result):
    """Every snapshot of a 3x3 SUM episode on the reference fabric (a
    held cluster stops once it has parked its result)."""
    ref = ReferenceFabric(3, 3, 3, 6, hold_result=hold_result)
    ref.begin("sum")
    for local in range(9):
        ref.arrive_local(local, local % 8)
    while not ref.done:
        ref.tick()
        yield ref, ref.snapshot()


def test_restored_pending_hand_offs_wake_their_stages():
    """No tick leaves a hand-off pending, but ``restore`` takes any
    snapshot: a parked column result not yet handed on, or a row
    broadcast the column reached that has not started, must wake its
    stage."""
    crafted = []
    for ref, snap in _episode_snapshots(hold_result=True):
        if ref._col_done:
            crafted.append((True, _crafted(snap, col_done=False)))
    for ref, snap in _episode_snapshots(hold_result=False):
        for r in range(1, 3):
            if ref.colslaves[r - 1].state == S_DONE \
                    and ref.rmasters[r].state != M_DONE \
                    and ref.rmasters[r].bc_idx == 0:
                crafted.append((False, _crafted(snap, rm_states={r: M_DONE})))
    assert {hold for hold, _ in crafted} == {True, False}
    for hold, snap in crafted:
        want = ReferenceFabric(3, 3, 3, 6, hold_result=hold)
        got = CollectiveFabric(3, 3, 3, 6, hold_result=hold)
        for fab in (want, got):
            fab.begin("sum")
            fab.restore(snap)
        assert got.will_act() is want.will_act() is True
        while want.will_act():
            assert got.tick() == want.tick()
            assert got.snapshot() == want.snapshot()
            assert got.will_act() == want.will_act()


def _catches(cls):
    """True if some script tells *cls* apart from the reference."""
    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None, phases=[Phase.generate],
              suppress_health_check=[HealthCheck.too_slow])
    @given(script=_script)
    def run(script):
        compare(cls, script)

    try:
        run()
    except AssertionError:
        return True
    return False


@pytest.mark.parametrize("mutant", [UnwokenBroadcastFabric,
                                    SleepingForcedWireFabric])
def test_planted_gating_mutations_are_caught(mutant):
    assert _catches(mutant)
