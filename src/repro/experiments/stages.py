"""Barrier-stage decomposition experiment (S1/S2/S3 analysis, §4.3).

The paper explains its application results through the three barrier
stages: notification (S1), busy-wait for the remaining cores (S2), release
(S3).  Its key observation: "we noticed that the latency of barriers is
dominated by the S2 stage and, as we mentioned, this implies workload
imbalance" -- which is why UNSTRUCTURED and OCEAN barely improve even
though GL makes S1+S3 nearly free.

This experiment quantifies that: per benchmark and per implementation it
reports the share of total in-barrier core time spent waiting for
stragglers (S2) versus driving the synchronization mechanism itself
(S1+S3).  Expectations:

* UNSTRUCTURED / OCEAN: S2-dominated under *both* DSW and GL (imbalance is
  a workload property; a faster barrier cannot fix it).
* Synthetic / fine-grain kernels: mechanism-dominated under DSW, and GL
  collapses the mechanism cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.report import pct, render_table
from ..chip.results import RunResult
from .fig6 import default_fig6_workloads
from .runner import run_points


@dataclass
class StageRow:
    benchmark: str
    impl: str
    s2_cycles: int
    sync_cycles: int

    @property
    def total(self) -> int:
        return self.s2_cycles + self.sync_cycles

    @property
    def s2_share(self) -> float:
        return self.s2_cycles / self.total if self.total else 0.0


def decompose(result: RunResult) -> tuple[int, int]:
    """(S2 wait cycles, mechanism cycles) of one run."""
    return (result.stats.counters["barrier.s2_wait_cycles"],
            result.stats.counters["barrier.sync_cycles"])


@dataclass
class StagesResult:
    rows: list[StageRow] = field(default_factory=list)

    def table(self) -> str:
        headers = ["Benchmark", "Impl", "S2 (wait) cycles",
                   "S1+S3 (mechanism) cycles", "S2 share"]
        out = [[r.benchmark, r.impl, r.s2_cycles, r.sync_cycles,
                pct(r.s2_share)] for r in self.rows]
        return render_table(headers, out,
                            title="Barrier stage decomposition "
                                  "(S2 = waiting for stragglers)")

    def s2_share(self, benchmark: str, impl: str) -> float:
        for r in self.rows:
            if r.benchmark == benchmark and r.impl == impl:
                return r.s2_share
        raise KeyError((benchmark, impl))


def run_stages(num_cores: int = 32, scale: float = 0.5,
               workloads: dict | None = None,
               impls=("dsw", "gl")) -> StagesResult:
    """Regenerate the stage-decomposition analysis."""
    result = StagesResult()
    points = [(name, wl, impl) for name, wl
              in (workloads or default_fig6_workloads(scale)).items()
              for impl in impls]
    runs = run_points([(wl, impl, num_cores) for _, wl, impl in points])
    for (name, _, impl), run in zip(points, runs):
        s2, sync = decompose(run)
        result.rows.append(StageRow(name, impl.upper(), s2, sync))
    return result
