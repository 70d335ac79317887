"""Fault scenarios and FSM mutations for the model checker.

A :class:`FaultScenario` is the verify-side counterpart of a
:class:`~repro.faults.plan.FaultPlan`: instead of seeded random rates it
names one *static* wire fault (stuck level or a per-cycle S-CSMA count
skew on a specific G-line role) plus the hardening configuration the
network runs under.  Static faults make the transition system finite and
let the same scenario be applied bit-identically to the abstract model
(:mod:`repro.verify.model`) and to a real
:class:`~repro.gline.network.GLineBarrierNetwork` during counterexample
replay (:mod:`repro.verify.conformance`).

Recovery scenarios add three finite ingredients on top:

* ``recovery=True`` arms the probe/probation re-admission FSM of
  :mod:`repro.gline.recovery` (probe timer abstracted to the constant
  ``probe_backoff`` -- exponential backoff only stretches time, which the
  bounded-recovery proof quantifies over anyway);
* ``heal`` makes the static fault *intermittent* in a deterministic way:
  ``"after-degrade"`` deactivates it once the network first degrades (a
  burst that ended), ``"off-degraded"`` deactivates it only while the
  network is degraded (a load-correlated fault that passes every idle
  probe, the flap generator);
* ``glitch_role`` arms a *one-shot* environment glitch: at a step of the
  explorer's choosing, the named transmit wire reads forced-high for one
  cycle -- the S-CSMA count lands exactly on the gather target with a
  core missing, the one fault class PR 2's guards provably cannot see.
  Probation's shadow cross-check must absorb it.

A :class:`Mutation` is a deliberate protocol bug -- an off-by-one in a
Master controller's gather threshold, or probation skipping its shadow
cross-check -- used to prove the checker finds real violations.  Each
mutation knows how to damage both the model (the model reads
:attr:`Mutation.target` at build time) and a live network
(:meth:`Mutation.apply_to_network`), so a model counterexample can be
replayed against the identically-damaged simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional

#: Wire roles a scenario can damage, keyed to the network's line names:
#: ``row_tx`` = SglineH{row}, ``row_rel`` = MglineH{row}, ``col_tx`` =
#: SglineV, ``col_rel`` = MglineV.
WIRE_ROLES = ("row_tx", "row_rel", "col_tx", "col_rel")

#: Heal modes for an intermittent static fault (see module docstring).
HEAL_MODES = ("never", "after-degrade", "off-degraded")

#: Initial recovery state of the network under a scenario.
START_MODES = ("healthy", "probation")

#: Expected verdicts. ``pass``: every property proved.  ``failover``:
#: safety holds because the watchdog retires the network to the software
#: fallback.  ``violation``: the checker must produce a counterexample
#: (unhardened fault demos and mutations).
EXPECT_PASS = "pass"
EXPECT_FAILOVER = "failover"
EXPECT_VIOLATION = "violation"


@dataclass(frozen=True)
class FaultScenario:
    """One static wire fault plus the hardening the network runs under."""

    name: str
    description: str
    #: Damaged wire role (``None`` = fault-free) and its row (row roles).
    role: Optional[str] = None
    row: int = 0
    #: Permanent stuck-at level (0/1), or ``None`` for a healthy level.
    stuck: Optional[int] = None
    #: Per-cycle S-CSMA count skew (the miscount fault class).
    count_delta: int = 0
    #: Hardening: > 0 arms the all-arrived watchdog with this budget.
    watchdog_budget: int = 0
    watchdog_retries: int = 2
    #: Recovery: arms the probe/probation re-admission FSM.
    recovery: bool = False
    probation_barriers: int = 2
    max_flaps: int = 2
    probe_backoff: int = 2
    max_probes: int = 3
    #: When the static fault deactivates (see ``HEAL_MODES``).
    heal: str = "never"
    #: Initial recovery state (``"probation"`` skips the degrade/probe
    #: prefix -- the shadow cross-check scenarios start here).
    start: str = "healthy"
    #: One-shot forced-high glitch on a transmit wire (``"row_tx"``).
    glitch_role: Optional[str] = None
    glitch_row: int = 0
    #: What the checker should conclude (see ``EXPECT_*``).
    expect: str = EXPECT_PASS

    def __post_init__(self) -> None:
        if self.role is not None and self.role not in WIRE_ROLES:
            raise ValueError(f"unknown wire role {self.role!r}")
        if self.stuck not in (None, 0, 1):
            raise ValueError(f"stuck must be None/0/1, got {self.stuck!r}")
        if self.role is not None and self.stuck is None \
                and self.count_delta == 0:
            raise ValueError(f"scenario {self.name}: role without a fault")
        if not 0 <= self.watchdog_budget <= 250:
            raise ValueError("watchdog_budget must be in 0..250")
        if self.expect not in (EXPECT_PASS, EXPECT_FAILOVER,
                               EXPECT_VIOLATION):
            raise ValueError(f"unknown expectation {self.expect!r}")
        if self.heal not in HEAL_MODES:
            raise ValueError(f"unknown heal mode {self.heal!r}")
        if self.start not in START_MODES:
            raise ValueError(f"unknown start mode {self.start!r}")
        if self.glitch_role not in (None, "row_tx"):
            raise ValueError(f"glitch_role must be None or 'row_tx', "
                             f"got {self.glitch_role!r}")
        if self.recovery and self.watchdog_budget == 0:
            raise ValueError(f"scenario {self.name}: recovery requires "
                             f"an armed watchdog (budget > 0)")
        if not self.recovery:
            if self.heal != "never":
                raise ValueError(f"scenario {self.name}: heal modes "
                                 f"require recovery=True")
            if self.start != "healthy":
                raise ValueError(f"scenario {self.name}: start="
                                 f"'probation' requires recovery=True")
            if self.glitch_role is not None:
                raise ValueError(f"scenario {self.name}: the probation "
                                 f"glitch requires recovery=True")
        if self.heal != "never" and self.role is None:
            raise ValueError(f"scenario {self.name}: heal without a "
                             f"fault to heal")
        for field_name, value, hi in (
                ("probation_barriers", self.probation_barriers, 8),
                ("max_flaps", self.max_flaps, 8),
                ("probe_backoff", self.probe_backoff, 32),
                ("max_probes", self.max_probes, 8)):
            if not 1 <= value <= hi:
                raise ValueError(f"{field_name} must be in 1..{hi}, "
                                 f"got {value}")
        if not 0 <= self.glitch_row <= 6:
            raise ValueError("glitch_row must be in 0..6")

    # ------------------------------------------------------------------ #
    @property
    def is_fault_free(self) -> bool:
        return self.role is None and self.glitch_role is None

    @property
    def hardened(self) -> bool:
        return self.watchdog_budget > 0

    @property
    def needs_injector(self) -> bool:
        """Whether a simulator replay must attach a ScenarioInjector."""
        return self.role is not None or self.glitch_role is not None

    def applicable(self, rows: int, cols: int) -> Optional[str]:
        """Why this scenario cannot run on ``rows x cols`` (None = it can)."""
        if self.role in ("row_tx", "row_rel"):
            if cols < 2:
                return f"{self.role} needs cols >= 2"
            if self.row >= rows:
                return f"row {self.row} outside a {rows}-row mesh"
        if self.role in ("col_tx", "col_rel") and rows < 2:
            return f"{self.role} needs rows >= 2"
        if self.glitch_role is not None:
            if cols < 2:
                return "a row_tx glitch needs cols >= 2"
            if self.glitch_row >= rows:
                return (f"glitch row {self.glitch_row} outside a "
                        f"{rows}-row mesh")
        return None

    def wire_suffix(self) -> Optional[str]:
        """Line-name suffix of the damaged wire (matches ``GLine.name``)."""
        if self.role is None:
            return None
        return {"row_tx": f"SglineH{self.row}",
                "row_rel": f"MglineH{self.row}",
                "col_tx": "SglineV",
                "col_rel": "MglineV"}[self.role]

    def glitch_suffix(self) -> Optional[str]:
        """Line-name suffix of the glitched wire."""
        if self.glitch_role is None:
            return None
        return f"SglineH{self.glitch_row}"

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "role": self.role, "row": self.row,
                "stuck": self.stuck, "count_delta": self.count_delta,
                "watchdog_budget": self.watchdog_budget,
                "watchdog_retries": self.watchdog_retries,
                "recovery": self.recovery,
                "probation_barriers": self.probation_barriers,
                "max_flaps": self.max_flaps,
                "probe_backoff": self.probe_backoff,
                "max_probes": self.max_probes,
                "heal": self.heal, "start": self.start,
                "glitch_role": self.glitch_role,
                "glitch_row": self.glitch_row,
                "expect": self.expect}


class ScenarioInjector:
    """A :class:`~repro.faults.injector.FaultInjector`-compatible shim that
    applies one scenario's static fault to the real network every cycle.

    ``perturb_glines`` is the only hook the network calls; re-applying the
    transient ``count_delta`` each clocked cycle mirrors the model, where
    the skew is part of the transition relation rather than a seeded event.

    For recovery scenarios the shim also implements the deterministic
    *heal* semantics (clearing ``line.stuck`` while the fault is
    inactive, so an idle-cycle probe sees the healed wire) and fires the
    one-shot glitch at the concretized engine cycles.  Heal modes consult
    the network's recovery controller through :attr:`net`, which
    :func:`~repro.verify.conformance.replay_on_simulator` wires up.
    """

    def __init__(self, scenario: FaultScenario,
                 glitch_cycles: Iterable[int] = ()):
        self.scenario = scenario
        self._suffix = scenario.wire_suffix()
        self._glitch_suffix = scenario.glitch_suffix()
        self.glitch_cycles = frozenset(glitch_cycles)
        #: Recovery-state backref for the heal modes (set by the replay).
        self.net: Any = None

    def _fault_active(self) -> bool:
        heal = self.scenario.heal
        if heal == "never":
            return True
        rec = getattr(self.net, "recovery", None)
        if rec is None:
            return True
        if heal == "after-degrade":
            return rec.degraded_episodes == 0
        # "off-degraded": the fault only manifests under load, never
        # while the quarantined network sits idle (or probes).
        from ..gline.recovery import DEGRADED, PROBING
        return rec.state not in (DEGRADED, PROBING)

    def perturb_glines(self, lines: List[Any],
                       now: Optional[int] = None) -> None:
        active = self._fault_active()
        if self._suffix is not None:
            for line in lines:
                if line.name.endswith("." + self._suffix):
                    if self.scenario.stuck is not None:
                        line.stuck = self.scenario.stuck if active \
                            else None
                    if self.scenario.count_delta and active:
                        line.count_delta = self.scenario.count_delta
        if self._glitch_suffix is not None and now is not None \
                and now in self.glitch_cycles:
            for line in lines:
                if line.name.endswith("." + self._glitch_suffix):
                    line.glitch_force = 1


# ---------------------------------------------------------------------- #
# Mutations: deliberate protocol bugs the checker must catch.
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class Mutation:
    """A deliberate protocol bug in one controller.

    ``target`` selects the damage: ``"mh"`` lowers every row master's
    ``n_slaves`` by one (a row flags complete with a slave still
    missing), ``"mv"`` lowers the column master's (the chip releases
    with a row still gathering) -- both the classic early-release bug class of
    barrier hardware.  ``"shadow"`` disables probation's shadow
    cross-check in the recovery FSM: the one guard standing between a
    one-shot gather glitch and a silent early release.
    """

    name: str
    description: str
    target: str

    def __post_init__(self) -> None:
        if self.target not in ("mh", "mv", "shadow"):
            raise ValueError(f"unknown mutation target {self.target!r}")

    def applicable(self, rows: int, cols: int) -> Optional[str]:
        if self.target == "mh" and cols < 2:
            return "mh threshold mutation needs cols >= 2"
        if self.target == "mv" and rows < 2:
            return "mv threshold mutation needs rows >= 2"
        return None

    def apply_to_network(self, net: Any) -> None:
        """Damage a live ``GLineBarrierNetwork`` identically to the model."""
        if self.target == "mh":
            for m in net.fabric.rmasters:
                m.n_slaves -= 1
        elif self.target == "mv":
            net.fabric.colmaster.n_slaves -= 1
        else:
            if net.recovery is None:
                raise ValueError("the shadow mutation needs a network "
                                 "with recovery enabled")
            net.recovery.shadow_disabled = True


#: Registry of named scenarios.  The hardened fault scenarios must stay
#: safe (the watchdog/failover machinery absorbs the fault); the
#: unhardened miscount demo must *lose* safety -- proving the checker can
#: tell the difference.  The recovery scenarios additionally prove
#: bounded re-admission and the flap bound.
SCENARIOS: Dict[str, FaultScenario] = {s.name: s for s in [
    FaultScenario(
        name="fault-free",
        description="healthy wires, paper-faithful unhardened network"),
    FaultScenario(
        name="fault-free-hardened",
        description="healthy wires with the watchdog armed (budget 8); "
                    "hardening must not break any property",
        watchdog_budget=8),
    FaultScenario(
        name="stuck-row-tx-low",
        description="row-0 SglineH stuck at 0: slave arrivals invisible, "
                    "watchdog must retry then fail over safely",
        role="row_tx", row=0, stuck=0,
        watchdog_budget=8, expect=EXPECT_FAILOVER),
    FaultScenario(
        name="stuck-col-rel-high",
        description="MglineV stuck at 1: spurious chip release level; the "
                    "hardened guard masks it and fails over safely",
        role="col_rel", stuck=1,
        watchdog_budget=8, expect=EXPECT_FAILOVER),
    FaultScenario(
        name="stuck-row-rel-low",
        description="row-0 MglineH stuck at 0: the release pulse is "
                    "dropped for the row's slaves while the master runs "
                    "ahead; the partial-release guard must fail the "
                    "split cohort over safely",
        role="row_rel", row=0, stuck=0,
        watchdog_budget=8, expect=EXPECT_FAILOVER),
    FaultScenario(
        name="miscount-row-tx",
        description="row-0 SglineH S-CSMA over-counts by one each cycle; "
                    "overshoot detection must catch it and fail over",
        role="row_tx", row=0, count_delta=1,
        watchdog_budget=8, expect=EXPECT_FAILOVER),
    FaultScenario(
        name="miscount-row-tx-unhardened",
        description="the same miscount without hardening: the polluted "
                    "Scnt releases a later episode early (demo of a real "
                    "safety violation)",
        role="row_tx", row=0, count_delta=1,
        expect=EXPECT_VIOLATION),
    FaultScenario(
        name="intermittent-row-tx-recovers",
        description="row-0 SglineH stuck at 0 until the watchdog "
                    "degrades the network, then healed: the probe must "
                    "pass and probation re-admit the hardware within a "
                    "bounded number of steps",
        role="row_tx", row=0, stuck=0, heal="after-degrade",
        watchdog_budget=8, recovery=True,
        probation_barriers=1, probe_backoff=2,
        expect=EXPECT_PASS),
    FaultScenario(
        name="flaky-row-tx-retires",
        description="row-0 SglineH stuck at 0 only under load: every "
                    "idle probe passes, every probation trips -- flap "
                    "damping must quarantine the network permanently "
                    "after max_flaps re-admissions, safely",
        role="row_tx", row=0, stuck=0, heal="off-degraded",
        watchdog_budget=8, recovery=True,
        probation_barriers=2, max_flaps=2, probe_backoff=2,
        expect=EXPECT_PASS),
    FaultScenario(
        name="probation-glitch",
        description="a one-shot gather glitch lands row 0's S-CSMA "
                    "count exactly on target with a slave missing, "
                    "evading every PR 2 guard; probation's shadow "
                    "cross-check must withhold the release",
        watchdog_budget=8, recovery=True,
        start="probation", probation_barriers=2,
        glitch_role="row_tx", glitch_row=0,
        expect=EXPECT_PASS),
    FaultScenario(
        name="healthy-glitch",
        description="the same one-shot gather glitch on a hardened "
                    "network in HEALTHY: no shadow cross-check runs "
                    "outside probation, so the count landing exactly on "
                    "target releases the chip with a slave missing -- "
                    "the limit of the hardened guards",
        watchdog_budget=8, recovery=True,
        glitch_role="row_tx", glitch_row=0,
        expect=EXPECT_VIOLATION),
]}

#: The canonical fault-free scenario (model default).
FAULT_FREE = SCENARIOS["fault-free"]

MUTATIONS: Dict[str, Mutation] = {m.name: m for m in [
    Mutation(name="mh-early-flag",
             description="every row master gathers to num_slaves-1: a row "
                         "flags complete with one slave missing",
             target="mh"),
    Mutation(name="mv-early-done",
             description="the column master gathers to num_rows-2: the "
                         "chip release starts with one row still "
                         "gathering",
             target="mv"),
    Mutation(name="probation-skip-shadow",
             description="probation skips the shadow cross-check: under "
                         "the probation-glitch scenario the hardware "
                         "releases early and safety is lost",
             target="shadow"),
]}


def get_scenario(name: str) -> FaultScenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(f"unknown scenario {name!r}; "
                       f"known: {', '.join(sorted(SCENARIOS))}") from None


def get_mutation(name: str) -> Mutation:
    try:
        return MUTATIONS[name]
    except KeyError:
        raise KeyError(f"unknown mutation {name!r}; "
                       f"known: {', '.join(sorted(MUTATIONS))}") from None
