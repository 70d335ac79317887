"""The stage-gated barrier tick against the full-visit tick.

:class:`ReferenceNetwork` keeps the full-visit clock the barrier network
had before its tick skipped stages that cannot change: ``_tick`` runs
the assert and sample phases of every controller and ends the cycle of
every wire, ``_will_act`` asks every controller, and the release guard
and fault collection read every master.  Hypothesis scripts drive it
and :class:`GLineBarrierNetwork` side by side on their own engines:
meshes up to 4x4 (single-row and single-column ones too), one to three
episodes of drawn arrival schedules, hardened or not, a release gate
opened after a drawn delay (as a hierarchy cluster's is), a fault
injector with drawn glitch, miscount, intermittent and stuck rates,
levels forced on drawn wires at drawn cycles, a wire stuck before the
first arrival and healed when the first episode ends, watchdog retries,
failover and recovery re-admission.  After
every cycle the resumes (core, cycle, outcome, in order), every
controller register, the bar_regs, ``_will_act()``, the wire toggles
and the ``faults.*`` counters must be equal.  Two planted mutations of
the gating show the comparison can fail.
"""

import pytest
from hypothesis import HealthCheck, Phase, example, given, settings
from hypothesis import strategies as st

from repro.common.params import GLineConfig
from repro.common.stats import StatsRegistry
from repro.faults import FAILOVER, FaultPlan
from repro.faults.injector import FaultInjector
from repro.gline.network import GLineBarrierNetwork
from repro.gline.stages import StageGate
from repro.obs import events as obs_ev
from repro.sim.engine import Engine


class ReferenceNetwork(GLineBarrierNetwork):
    """The barrier network with its full-visit clock."""

    def _tick(self):
        self.active_cycles += 1
        self._next_tick = None
        released = []
        for mh in self.masters_h:
            mh.assert_phase(self.bar_regs, released)
        for sh in self.slaves_h:
            sh.assert_phase(self.bar_regs)
        for sv in self.slaves_v:
            sv.assert_phase()
        if self.master_v is not None:
            self.master_v.assert_phase()
        if self.injector is not None:
            self.injector.perturb_glines(self.lines, now=self.now)
        if self.hardened:
            self._guard_release_lines()
        if self.master_v is not None:
            self.master_v.sample_phase()
        for mh in self.masters_h:
            mh.sample_phase(self.bar_regs)
        for sv in self.slaves_v:
            sv.sample_phase()
        for sh in self.slaves_h:
            sh.sample_phase(self.bar_regs, released)
        fault = self.hardened and self._fault_detected()
        if not fault and self.rows == 1 and self.masters_h[0].flag \
                and not self.masters_h[0].release_trigger:
            if self._gate is None or self._gate.is_open:
                if self.hardened and not self._row_validated:
                    self._row_validated = True
                else:
                    self.masters_h[0].release_trigger = True
            else:
                self._gate.on_gathered()
        self._wire_probe(self.lines)
        for line in self.lines:
            line.end_cycle()
        if self.tracer.enabled:
            self.tracer.emit(
                self.now, self.name, obs_ev.GL_FSM,
                flags=[mh.flag for mh in self.masters_h],
                scnt=[mh.scnt for mh in self.masters_h],
                vscnt=self.master_v.scnt if self.master_v else None,
                arrived=self._arrived)
        if released:
            self._complete_release(released)
        if fault and self._arrived > 0:
            self._handle_fault()
            return
        self._clock_next(self._will_act())

    def _will_act(self):
        bar_regs = self.bar_regs
        for mh in self.masters_h:
            if mh.will_act(bar_regs):
                return True
        for sh in self.slaves_h:
            if sh.will_act(bar_regs):
                return True
        for sv in self.slaves_v:
            if sv.will_act():
                return True
        if self.master_v is not None and self.master_v.will_act():
            return True
        return (self.hardened and self.rows == 1 and self.masters_h[0].flag
                and not self.masters_h[0].release_trigger
                and (self._gate is None or self._gate.is_open))

    def _guard_release_lines(self, visit=None):
        spurious = False
        for r, rel in enumerate(self.row_rel):
            if rel is not None and rel.sampled_on() \
                    and not self.masters_h[r].drove_release:
                rel.glitch_force = 0
                spurious = True
        if self.col_rel is not None and self.col_rel.sampled_on() \
                and not (self.master_v is not None
                         and self.master_v.drove_release):
            self.col_rel.glitch_force = 0
            spurious = True
        if spurious:
            self._spurious_release = True
            self.fault_stats.bump("faults.gline.spurious_releases")

    def _fault_detected(self, visit=None):
        found = self._spurious_release
        self._spurious_release = False
        for mh in self.masters_h:
            found |= mh.fault_suspected
            mh.fault_suspected = False
        if self.master_v is not None:
            found |= self.master_v.fault_suspected
            self.master_v.fault_suspected = False
        return found


# ---------------------------------------------------------------------- #
# Planted mutations of the gating
# ---------------------------------------------------------------------- #
class UnwokenReleaseRowNetwork(GLineBarrierNetwork):
    """A SlaveV's release hand-off wakes row 0, not its own row."""

    def _build(self):
        super()._build()
        for sv in self.slaves_v:
            sv.row = 0


class SleepingForcedWireGate(StageGate):
    """Ignores a wire forced on a sleeping stage."""

    __slots__ = ()

    def forced(self, hooked):
        return super().forced(hooked) & self.awake


class SleepingForcedWireNetwork(GLineBarrierNetwork):
    """A wire forced on a sleeping stage is ignored."""

    def _build(self):
        super()._build()
        self._stage_gate.__class__ = SleepingForcedWireGate


# ---------------------------------------------------------------------- #
# Scripts
# ---------------------------------------------------------------------- #
_rate = st.sampled_from([0.0, 0.0, 0.01, 0.03, 0.08])

_script = st.fixed_dictionaries({
    "rows": st.integers(1, 4),
    "cols": st.integers(1, 4),
    # Per episode, each core's compute before it arrives (the first
    # from cycle 0, the others from its resume).
    "delays": st.lists(st.lists(st.integers(0, 12), min_size=16,
                                max_size=16), min_size=1, max_size=3),
    "budget": st.sampled_from([0, 0, 8, 16, 40]),
    "retries": st.integers(0, 2),
    "episode_budget": st.sampled_from([0, 0, 60]),
    "recovery": st.booleans(),
    "probation": st.integers(1, 2),
    "flaps": st.integers(1, 3),
    "gate": st.one_of(st.none(), st.integers(0, 6)),
    "faults": st.one_of(st.none(), st.fixed_dictionaries({
        "seed": st.integers(0, 1000),
        "gline_glitch_rate": _rate,
        "scsma_miscount_rate": _rate,
        "gline_intermittent_rate": st.sampled_from([0.0, 0.0, 0.01]),
        "gline_stuck_rate": st.sampled_from([0.0, 0.0, 0.005]),
    })),
    # Levels forced on a wire for one cycle: (cycle, wire index, level).
    "forced": st.one_of(st.just([]), st.lists(st.tuples(
        st.integers(0, 40), st.integers(0, 9), st.integers(0, 1)),
        max_size=4)),
    # A wire stuck before the first arrival: (wire index, level).
    "stuck": st.one_of(st.none(), st.tuples(st.integers(0, 9),
                                            st.integers(0, 1))),
})

#: Cycles a script runs at most; every episode ends well before.
HORIZON = 400


class Injector:
    """The seeded fault injector, if any, then the script's forced
    levels."""

    def __init__(self, seeded, forced):
        self.seeded = seeded
        self.forced = forced

    def perturb_glines(self, lines, now=None):
        if self.seeded is not None:
            self.seeded.perturb_glines(lines, now=now)
        for cycle, index, level in self.forced:
            if cycle == now:
                lines[index % len(lines)].glitch_force = level


class Side:
    """One network under a script, with the cores that drive it."""

    def __init__(self, cls, script):
        rows, cols = script["rows"], script["cols"]
        budget = script["budget"]
        recovery = script["recovery"] and budget > 0
        cfg = GLineConfig(
            watchdog_budget=budget, watchdog_retries=script["retries"],
            watchdog_episode_budget=script["episode_budget"] if budget
            else 0,
            recovery_enabled=recovery, recovery_probe_interval=6,
            recovery_backoff_factor=1, recovery_max_backoff=6,
            recovery_max_probes=3,
            recovery_probation_barriers=script["probation"],
            recovery_max_flaps=script["flaps"])
        self.engine = Engine()
        self.stats = StatsRegistry(rows * cols)
        self.net = net = cls(self.engine, self.stats, rows, cols, cfg)
        seeded = None
        if script["faults"] is not None:
            seeded = FaultInjector(
                FaultPlan(gline_intermittent_min_cycles=2,
                          gline_intermittent_max_cycles=8,
                          **script["faults"]), self.stats)
        if (seeded is not None or script["forced"]) and net.lines:
            net.set_injector(Injector(seeded, script["forced"]))
        if script["gate"] is not None:
            delay = script["gate"]
            net.install_gate(
                lambda: self.engine.schedule(delay, net.open_gate))
        #: The wire stuck before the first arrival, healed at the first
        #: resume: once the first episode is over for some core.
        self.stuck = None
        if script["stuck"] is not None and net.lines:
            index, level = script["stuck"]
            self.stuck = net.lines[index % len(net.lines)]
            self.stuck.stuck = level
        self.delays = script["delays"]
        self.resumes = []
        for core in range(net.num_cores):
            self.engine.schedule_at(self.delays[0][core], self._arrive,
                                    core, 0)

    def _arrive(self, core, episode):
        def resume(outcome=None):
            self.resumes.append((core, self.engine.now,
                                 outcome is FAILOVER))
            if self.stuck is not None:
                self.stuck.stuck = None
                self.stuck = None
            if episode + 1 < len(self.delays):
                self.engine.schedule(self.delays[episode + 1][core],
                                     self._arrive, core, episode + 1)
        self.net.arrive(core, resume)

    def run_to(self, cycle):
        try:
            self.engine.run(until=cycle)
        except Exception as exc:
            return type(exc).__name__, str(exc)
        return None

    def observe(self):
        net = self.net
        mv = net.master_v
        return (
            list(self.resumes),
            [(mh.scnt, mh.mcnt, mh.flag, mh.release_trigger,
              mh.fault_suspected, mh.drove_release) for mh in net.masters_h],
            [sh.signaling for sh in net.slaves_h],
            [sv.sent for sv in net.slaves_v],
            None if mv is None else (mv.scnt, mv.mcnt, mv.done,
                                     mv.validating, mv.fault_suspected,
                                     mv.drove_release),
            list(net.bar_regs.values), net._will_act(),
            net.active, net.active_cycles, net._arrived, net.quarantined,
            net.barriers_completed,
            None if net.recovery is None else net.recovery.state,
            self.stats.gline_toggles,
            {k: v for k, v in self.stats.counters.items()
             if k.startswith("faults.")},
            [(gl.toggles, gl.stuck) for gl in net.lines],
        )


def compare(cls, script):
    """Drive *cls* and the reference with *script*; assert they agree
    after every cycle."""
    ref = Side(ReferenceNetwork, script)
    got = Side(cls, script)
    for cycle in range(HORIZON):
        want = ref.run_to(cycle)
        have = got.run_to(cycle)
        assert have == want, cycle
        assert got.observe() == ref.observe(), cycle
        if want is not None or not (ref.engine.pending()
                                    or got.engine.pending()):
            return


def _script_of(**over):
    base = dict(rows=2, cols=2, delays=[[0] * 16], budget=0, retries=0,
                episode_budget=0, recovery=False, probation=1, flaps=1,
                gate=None, faults=None, forced=[], stuck=None)
    return {**base, **over}


#: Row 1's gather wire is stuck high before the first arrival and only
#: row 0 arrives before it: the sleeping row's master must still count
#: the wire.
STUCK_BEFORE_FIRST = _script_of(delays=[[0, 0, 9, 9] + [0] * 12],
                                stuck=(2, 1))
#: A hardened single-row network behind a gate: the validation cycle
#: and the single-row release hand-off.
GATED_ROW = _script_of(rows=1, cols=4, delays=[[3, 0, 5, 1] + [0] * 12,
                                                [1] * 16],
                       budget=16, gate=3)
#: Hardened 2x2, row 1 late.  A high vertical gather wire lets row 0
#: release alone, and two highs on row 1's gather wire overcount it in
#: the release cycle, when no core waits.  Core 0 arrives next: the tick
#: must find the overcount then, though row 1 sleeps.
IDLE_OVERCOUNT = _script_of(delays=[[0, 0, 40, 40] + [0] * 12,
                                    [24, 34] + [0] * 14],
                            budget=40, retries=2,
                            forced=[(1, 2, 1), (2, 4, 1), (5, 2, 1)])


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(script=_script)
@example(script=STUCK_BEFORE_FIRST)
@example(script=GATED_ROW)
@example(script=IDLE_OVERCOUNT)
def test_gated_tick_matches_full_visit_tick(script):
    compare(GLineBarrierNetwork, script)


def _catches(cls):
    """True if some script tells *cls* apart from the reference."""
    @settings(max_examples=200, deadline=None, derandomize=True,
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


@pytest.mark.parametrize("mutant", [UnwokenReleaseRowNetwork,
                                    SleepingForcedWireNetwork])
def test_planted_gating_mutations_are_caught(mutant):
    assert _catches(mutant)
