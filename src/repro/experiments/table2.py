"""Table 2: benchmark configuration -- #barriers and barrier period.

The paper computes the barrier period as total execution cycles divided by
total barriers, under the baseline (software-barrier) configuration.  We
run every benchmark under DSW at 32 cores and report measured counts and
periods next to the paper's full-scale values, plus the scale factor of
the shipped configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.report import render_table
from ..workloads import (EM3DWorkload, Kernel2Workload, Kernel3Workload,
                         Kernel6Workload, OceanWorkload,
                         SyntheticBarrierWorkload, UnstructuredWorkload)
from ..workloads.base import Workload, WorkloadInfo
from .runner import run_points


def default_table2_workloads(scale: float = 1.0) -> list[Workload]:
    def s(x: int) -> int:
        return max(1, round(x * scale))

    return [
        SyntheticBarrierWorkload(iterations=s(100)),
        Kernel2Workload(iterations=s(20)),
        Kernel3Workload(iterations=s(100)),
        Kernel6Workload(n=128, iterations=s(2)),
        OceanWorkload(phases=s(6)),
        UnstructuredWorkload(phases=s(6)),
        EM3DWorkload(steps=s(4)),
    ]


@dataclass
class Table2Row:
    info: WorkloadInfo
    measured_barriers: int
    measured_period: float


@dataclass
class Table2Result:
    rows: list[Table2Row] = field(default_factory=list)

    def table(self) -> str:
        headers = ["Benchmark", "Input size (scaled)", "#Barriers",
                   "Period (meas.)", "#Barriers (paper)", "Period (paper)"]
        out = []
        for row in self.rows:
            out.append([
                row.info.name,
                row.info.input_size,
                row.measured_barriers,
                row.measured_period,
                row.info.paper_barriers,
                row.info.paper_period,
            ])
        return render_table(headers, out,
                            title="Table 2: benchmark configuration "
                                  "(measured under DSW, 32 cores)")

    def period_ordering(self) -> list[str]:
        """Benchmarks sorted by measured period (the shape check: the
        kernels and EM3D are fine-grain; UNSTR and OCEAN are not)."""
        return [r.info.name
                for r in sorted(self.rows, key=lambda r: r.measured_period)]


def run_table2(num_cores: int = 32, scale: float = 1.0,
               workloads: list[Workload] | None = None) -> Table2Result:
    """Regenerate Table 2."""
    result = Table2Result()
    workloads = workloads or default_table2_workloads(scale)
    runs = run_points([(wl, "dsw", num_cores) for wl in workloads])
    for wl, run in zip(workloads, runs):
        result.rows.append(Table2Row(
            info=wl.info(),
            measured_barriers=run.num_barriers(),
            measured_period=run.barrier_period()))
    return result
