"""Explicit-state model checking for the G-line barrier protocol.

``repro.verify`` reduces the G-line barrier -- the per-row master/slave
FSMs of the barrier kind of :mod:`repro.collectives.fabric`, the S-CSMA
wire semantics of
:mod:`repro.gline.gline` and the watchdog/failover hardening of
:mod:`repro.faults` -- to a compact, hashable transition system
(:class:`GLBarrierModel`) and exhaustively enumerates every reachable
state under every arrival interleaving (:func:`explore`), with symmetry
reduction over interchangeable cores.  Four properties are checked:

* **safety** -- no core is released before all cores of its episode
  arrived;
* **exactly-once** -- each core is released exactly once per episode;
* **deadlock-freedom** -- from every reachable state, completing all
  episodes stays possible (and inevitable once all arrivals land);
* **four-cycle** -- on healthy wires the release follows the last
  arrival by exactly the paper's bound (4 cycles on a 2D mesh).

Faults and hardening are first-class: a :class:`FaultScenario` pins a
static stuck-at or S-CSMA miscount to one wire role and the checker
proves the hardened network *stays safe* by absorbing the fault through
watchdog retry/failover -- or, for unhardened demos and deliberate FSM
:class:`Mutation`\\ s, produces a minimal counterexample.

The conformance bridge closes the loop with the reference simulator:
:func:`concretize` + :func:`replay_on_simulator` drive a real
:class:`~repro.gline.network.GLineBarrierNetwork` with a counterexample
schedule and confirm the violation in "hardware" (then export it as a
Perfetto/VCD artifact via :func:`export_counterexample`), while
:func:`lift_trace` replays a recorded observability stream through the
model and checks refinement cycle-by-cycle.

``repro verify --mesh 4x4`` runs all of this from the CLI; with
``--shard-depth`` the BFS frontier is split into
:class:`VerifyShardSpec`\\ s that fan out over the parallel executor and
persistent result cache like any other experiment.
"""

from .collectives import (COLLECTIVE_PROPERTIES, CollectiveCounterexample,
                          CollectiveExploreResult, CollectiveModel,
                          CollectiveReplayResult, P_COLL_TERMINATION,
                          P_COLL_ONCE, P_COLL_VALUE, explore_collective,
                          replay_collective)
from .conformance import (ConcretePath, LiftResult, ReplayResult,
                          concretize, export_counterexample, lift_perfetto,
                          lift_trace, replay_on_simulator)
from .explore import (ALL_PROPERTIES, NOT_PROVED, PROVED, SKIPPED,
                      VIOLATED, Counterexample, ExploreResult, explore,
                      replay_actions)
from .model import (GLBarrierModel, P_DEADLOCK, P_EXACTLY_ONCE, P_FLAP,
                    P_FOUR_CYCLE, P_RECOVERY, P_SAFETY, PropertyViolation)
from .report import (expectation_verdict, render_counterexample,
                     render_report, report_dict)
from .scenarios import (EXPECT_FAILOVER, EXPECT_PASS, EXPECT_VIOLATION,
                        FAULT_FREE, MUTATIONS, SCENARIOS, FaultScenario,
                        Mutation, ScenarioInjector, get_mutation,
                        get_scenario)
from .shard import (VerifyShardResult, VerifyShardSpec, merge_shards,
                    shard_prefixes)

__all__ = [
    "GLBarrierModel", "PropertyViolation",
    "P_SAFETY", "P_EXACTLY_ONCE", "P_DEADLOCK", "P_FOUR_CYCLE",
    "P_RECOVERY", "P_FLAP",
    "explore", "replay_actions", "ExploreResult", "Counterexample",
    "ALL_PROPERTIES", "PROVED", "VIOLATED", "NOT_PROVED", "SKIPPED",
    "FaultScenario", "Mutation", "ScenarioInjector",
    "SCENARIOS", "MUTATIONS", "FAULT_FREE",
    "EXPECT_PASS", "EXPECT_FAILOVER", "EXPECT_VIOLATION",
    "get_scenario", "get_mutation",
    "concretize", "replay_on_simulator", "export_counterexample",
    "lift_trace", "lift_perfetto",
    "ConcretePath", "ReplayResult", "LiftResult",
    "VerifyShardSpec", "VerifyShardResult", "shard_prefixes",
    "merge_shards",
    "render_report", "render_counterexample", "report_dict",
    "expectation_verdict",
    "CollectiveModel", "CollectiveExploreResult",
    "CollectiveCounterexample", "CollectiveReplayResult",
    "COLLECTIVE_PROPERTIES", "P_COLL_VALUE", "P_COLL_ONCE",
    "P_COLL_TERMINATION", "explore_collective", "replay_collective",
]
