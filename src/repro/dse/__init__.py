"""Design-space exploration over the G-line configuration space.

The paper evaluates one hand-picked configuration per mesh size; this
subsystem turns the repo's full configuration surface -- mesh shape,
flat-vs-hierarchical topology, watchdog budgets, barrier variant,
collective backend and integrity mode, slot multiplexing, recovery
knobs -- into a searchable space and maps its latency/energy/area/
resilience trade-off frontier automatically.

Evaluations are dispatched by the same :class:`~repro.exec.ParallelRunner`
every other sweep uses, so DSE batches share the content-addressed
:class:`~repro.exec.ResultCache`, the :class:`~repro.exec.SweepJournal`
(``repro resume`` works on DSE runs), the supervisor's retries, chaos
hook and ``exec.*`` metric streams.  On top of it sits the **Pareto
search driver** (:mod:`repro.dse.search` over :mod:`repro.dse.space` /
:mod:`repro.dse.objectives` / :mod:`repro.dse.pareto`): a typed
:class:`DseSpace` of sweepable axes, multi-objective extraction from
:class:`~repro.chip.results.RunResult` (cycles/episode, network-energy
proxy, dedicated-wire count, failover rate), dominance/front utilities,
and a seeded successive-halving + local-mutation loop that proposes
batches, consumes runner results and emits a deterministic Pareto front
(the ``repro dse`` CLI; CSV/JSON export).

Everything is deterministic per ``--seed``: the search trajectory
depends only on simulation results (themselves deterministic), so a
warm rerun reproduces the committed golden front byte-for-byte with
zero re-simulation.  See ``docs/dse.md``.
"""

from .objectives import OBJECTIVES, Objective, extract_objectives
from .pareto import (crowded_order, dominates, nondominated_sort,
                     pareto_front)
from .search import (DEFAULT_OBJECTIVES, DEFAULT_RUNGS, FrontPoint,
                     SearchError, SearchResult, front_csv, front_json,
                     run_search)
from .space import (AXES, SPACES, Axis, DseSpace, SpaceError,
                    space_from_arg)

__all__ = [
    "AXES", "SPACES", "Axis", "DseSpace", "SpaceError", "space_from_arg",
    "OBJECTIVES", "Objective", "extract_objectives",
    "dominates", "pareto_front", "nondominated_sort", "crowded_order",
    "DEFAULT_OBJECTIVES", "DEFAULT_RUNGS", "FrontPoint", "SearchError",
    "SearchResult", "run_search", "front_csv", "front_json",
]
