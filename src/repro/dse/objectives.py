"""Multi-objective extraction from evaluated design points.

Each :class:`Objective` maps an evaluated ``(RunSpec, RunResult)`` pair
to one scalar that the Pareto layer **minimizes**.  The registry
:data:`OBJECTIVES` covers the four trade-off dimensions the paper's
comparison tables reason about informally:

* ``latency`` -- cycles per synchronization episode (per barrier for
  the synthetic workload, per collective operation for the all-reduce
  workload), so points running different workloads or fidelities stay
  comparable;
* ``energy`` -- the network-energy proxy of :mod:`repro.analysis.
  energy` (flit-hops + router traversals + G-line toggles), normalized
  per episode for the same reason;
* ``wires`` -- dedicated global wires the point's hardware spends: the
  barrier network's budget (zero for software barriers) plus one line
  set per *physical* collective context (time-multiplexed contexts
  share wires).  A first-order proxy: the hierarchical extension's
  segment wiring is approximated by the flat budget.
* ``failover`` -- software-fallback arrivals per core per episode, the
  resilience metric of :mod:`repro.experiments.resilience` (zero on
  fault-free points).

Extractors are pure functions of the spec + result, so objective
vectors are as deterministic as the simulations that produce them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from ..common.errors import ReproError


class ObjectiveError(ReproError):
    """An unknown objective name was requested."""


def _episodes(spec: Any, result: Any) -> int:
    """Synchronization episodes in the run (>= 1).

    Barrier workloads report them through the stats registry; the
    all-reduce workload performs one collective per iteration.
    """
    barriers = int(result.num_barriers())
    if barriers > 0:
        return barriers
    return max(1, int(getattr(spec.workload, "iterations", 1)))


def _latency(spec: Any, result: Any) -> float:
    return float(result.total_cycles) / _episodes(spec, result)


def _energy(spec: Any, result: Any) -> float:
    from ..analysis.energy import estimate

    return float(estimate("dse", result).total) / _episodes(spec, result)


def _wires(spec: Any, result: Any) -> float:
    from ..gline.area import gline_budget

    cfg = spec.config
    rows, cols = cfg.noc.rows, cfg.noc.cols
    wires = 0
    if spec.barrier == "gl":
        wires += gline_budget(rows, cols, cfg.gline.num_barriers).wires
    cc = cfg.collectives
    if cc.enabled and cc.backend == "gl":
        # Time-multiplexed contexts share one network's wires, and then
        # num_contexts is 1.
        wires += gline_budget(rows, cols, cc.num_contexts).wires
    return float(wires)


def _failover(spec: Any, result: Any) -> float:
    arrivals = result.stats.counters.get("faults.failover.sw_arrivals", 0)
    cores = max(1, int(result.num_cores))
    return float(arrivals) / (_episodes(spec, result) * cores)


@dataclass(frozen=True)
class Objective:
    """A named, minimized scalar extracted from an evaluation."""

    name: str
    unit: str
    description: str
    extract: Callable[[Any, Any], float]


#: Registry keyed by CLI ``--objectives`` name.
OBJECTIVES: dict[str, Objective] = {o.name: o for o in (
    Objective("latency", "cycles/episode",
              "total cycles per synchronization episode", _latency),
    Objective("energy", "units/episode",
              "network-energy proxy per episode", _energy),
    Objective("wires", "wires",
              "dedicated global wires (barrier + physical collective "
              "contexts)", _wires),
    Objective("failover", "arrivals/core/episode",
              "software-failover arrivals per core per episode",
              _failover),
)}


def extract_objectives(names: tuple[str, ...], spec: Any,
                       result: Any) -> tuple[float, ...]:
    """The objective vector for one evaluation, in ``names`` order."""
    unknown = [n for n in names if n not in OBJECTIVES]
    if unknown:
        raise ObjectiveError(
            f"unknown objective(s) {unknown}; known: {sorted(OBJECTIVES)}")
    return tuple(OBJECTIVES[n].extract(spec, result) for n in names)
