"""DSE-driven crossover study: where does dedicated wiring stop paying?

The paper argues the G-line network's advantage by comparing one
hand-picked configuration per mesh size against software barriers.
This driver asks the searched version of that question: for each mesh,
:func:`repro.dse.run_search` maps the latency/energy/wire Pareto front
of a space spanning barrier variant (``gl``/``dsw``/``csw``),
flat-vs-hierarchical topology, watchdog hardening and collective
backend -- and the headline compares the best G-line point against the
best all-software point on the same front, pricing the speedup in
dedicated wires.

Searches share one runner (and therefore one cache/journal/chaos
policy), so a crossover study resumes and warm-reruns exactly like a
plain ``repro dse`` invocation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..common.params import mesh_dims
from ..exec import ParallelRunner
from ..dse.search import DEFAULT_OBJECTIVES, SearchResult, run_search
from ..dse.space import Axis, DseSpace

#: Fidelity rungs for the crossover searches (big meshes are costly;
#: the top rung stays modest).
CROSSOVER_RUNGS = (2, 4, 8)


def crossover_space(num_cores: int) -> DseSpace:
    """The per-mesh search space of the crossover study."""
    rows, cols = mesh_dims(num_cores)
    return DseSpace(
        name=f"crossover-{rows}x{cols}",
        description=f"crossover study axes at {rows}x{cols}",
        axes=(Axis("mesh", (f"{rows}x{cols}",)),
              Axis("topology", ("fit", "hier")),
              Axis("watchdog_budget", (0, 64)),
              Axis("barrier", ("gl", "dsw", "csw")),
              Axis("collectives", ("off", "gl", "sw"))))


@dataclass
class DseCrossoverResult:
    """Per-mesh Pareto fronts plus the G-line-vs-software headline."""

    core_counts: tuple[int, ...]
    budget: int
    seed: int
    fronts: dict[int, SearchResult] = field(default_factory=dict)

    def best_latency(self, num_cores: int,
                     barrier: str) -> float | None:
        """Best (lowest) latency on the front using *barrier*."""
        picks = [fp.objectives["latency"]
                 for fp in self.fronts[num_cores].front
                 if fp.point.get("barrier") == barrier]
        return min(picks) if picks else None

    def headline(self, num_cores: int) -> str:
        front = self.fronts[num_cores].front
        gl = self.best_latency(num_cores, "gl")
        sw = [lat for b in ("dsw", "csw")
              if (lat := self.best_latency(num_cores, b)) is not None]
        if gl is None or not sw:
            return (f"{num_cores} cores: front lacks a gl/software "
                    f"pair; no crossover to report")
        best_sw = min(sw)
        wires = min(fp.objectives.get("wires", 0.0) for fp in front
                    if fp.point.get("barrier") == "gl")
        return (f"{num_cores} cores: best G-line point "
                f"{gl:.1f} cycles/episode vs best software "
                f"{best_sw:.1f} -- {best_sw / gl:.2f}x for "
                f"{wires:.0f} dedicated wires")

    def table(self) -> str:
        parts = [self.fronts[n].table() for n in self.core_counts]
        headline = ["crossover headline:"] + \
            [f"  {self.headline(n)}" for n in self.core_counts]
        return "\n\n".join(parts + ["\n".join(headline)])


def run_dse_crossover(core_counts: Sequence[int] = (64, 256),
                      budget: int = 20, seed: int = 7,
                      objectives: Sequence[str] = DEFAULT_OBJECTIVES,
                      rungs: Sequence[int] = CROSSOVER_RUNGS,
                      runner: ParallelRunner | None = None,
                      ) -> DseCrossoverResult:
    """Run the per-mesh searches (8x8 and 16x16 by default)."""
    if runner is None:
        runner = ParallelRunner(jobs=1, keep_going=True)
    result = DseCrossoverResult(core_counts=tuple(core_counts),
                                budget=budget, seed=seed)
    for num_cores in result.core_counts:
        result.fronts[num_cores] = run_search(
            crossover_space(num_cores), objectives, budget=budget,
            seed=seed, runner=runner, rungs=rungs)
    return result
