"""Synthetic barrier microbenchmark (Figure 5).

Follows the methodology the paper takes from Culler/Singh/Gupta:
"performance is measured as average time per barrier over a loop of four
consecutive barriers with no work or delays between them, with the loop
being executed 100,000 times".  The scaled default keeps the structure
(4 barriers per loop iteration) with fewer iterations.
"""

from __future__ import annotations

from typing import Generator

from ..common.errors import WorkloadError
from ..cpu import isa
from .base import Workload, WorkloadInfo


class SyntheticBarrierWorkload(Workload):
    """Back-to-back barriers; measures barrier latency itself."""

    name = "Synthetic"
    PAPER_ITERATIONS = 100_000

    def __init__(self, iterations: int = 250, barriers_per_iter: int = 4):
        if iterations < 1 or barriers_per_iter < 1:
            raise WorkloadError("iterations and barriers_per_iter >= 1")
        self.iterations = iterations
        self.barriers_per_iter = barriers_per_iter

    def programs(self, chip) -> list[Generator]:
        def program() -> Generator:
            op = isa.BarrierOp()        # frozen: one serves every barrier
            for _ in range(self.iterations):
                for _ in range(self.barriers_per_iter):
                    yield op

        return [program() for _ in range(chip.num_cores)]

    def info(self) -> WorkloadInfo:
        return WorkloadInfo(
            name=self.name,
            input_size=f"{self.iterations:,} iterations",
            num_barriers=self.iterations * self.barriers_per_iter,
            paper_barriers=400_000,
            paper_period=2_568,
        )
