"""Software-barrier shoot-out (extending Figure 5's baseline set).

The paper compares GL against CSW and DSW, calling the combining tree "one
of the best software approaches".  This experiment adds the other two
classic contenders -- the dissemination barrier and the tournament barrier
-- so the claim is checked rather than assumed, and GL's margin is
measured against the *best* of the four.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.report import render_table
from ..workloads.synthetic import SyntheticBarrierWorkload
from .runner import run_points

DEFAULT_IMPLS = ("csw", "dsw", "diss", "tour", "gl")


@dataclass
class ShootoutResult:
    core_counts: tuple[int, ...]
    impls: tuple[str, ...]
    cycles_per_barrier: dict[str, dict[int, float]] = field(
        default_factory=dict)

    def table(self) -> str:
        headers = ["Cores"] + [i.upper() for i in self.impls]
        rows = [[n] + [self.cycles_per_barrier[i][n] for i in self.impls]
                for n in self.core_counts]
        return render_table(headers, rows,
                            title="Software-barrier shoot-out: avg cycles "
                                  "per barrier")

    def best_software(self, cores: int) -> tuple[str, float]:
        """(name, cycles) of the fastest non-GL implementation."""
        candidates = [(i, self.cycles_per_barrier[i][cores])
                      for i in self.impls if i != "gl"]
        return min(candidates, key=lambda kv: kv[1])

    def gl_margin(self, cores: int) -> float:
        """Best-software cycles divided by GL cycles."""
        _name, best = self.best_software(cores)
        return best / self.cycles_per_barrier["gl"][cores]


def run_shootout(core_counts=(4, 8, 16, 32), impls=DEFAULT_IMPLS,
                 iterations: int = 40) -> ShootoutResult:
    result = ShootoutResult(core_counts=tuple(core_counts),
                            impls=tuple(impls))
    points = [(impl, n) for impl in impls for n in core_counts]
    runs = run_points([(SyntheticBarrierWorkload(iterations=iterations),
                        impl, n) for impl, n in points])
    for (impl, n), run in zip(points, runs):
        result.cycles_per_barrier.setdefault(impl, {})[n] = \
            run.total_cycles / run.num_barriers()
    return result
