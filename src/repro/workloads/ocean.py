"""OCEAN-like scientific application (SPLASH-2).

OCEAN "studies large-scale ocean movements based on eddy and boundary
currents".  Structurally it is a sequence of red-black Gauss-Seidel /
stencil phases over large grids, separated by barriers, with occasional
lock-protected global reductions.  The paper picks it as the SPLASH-2
application with the *most* barrier executions -- and still finds only one
barrier every ~205,206 cycles, which is why GL only buys ~5%.

Our re-implementation: a 3-point vertical stencil over a row-partitioned
``g x g`` pair of ping-pong grids.  Interior rows are private (cached
after the first sweep); the rows at partition boundaries are read by two
cores, producing the moderate sharing traffic of a stencil code.  Each
phase ends with a lock-protected update of a global residual cell and a
barrier.  Grid values are seeded and the final state is verifiable against
a NumPy reference (:meth:`verify`).
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Generator

from ..common.errors import WorkloadError
from ..cpu import isa
from ..mem.address import WORD_BYTES
from .base import VALUE_MOD, Workload, WorkloadInfo, chunk_bounds

if TYPE_CHECKING:
    import numpy as np


class OceanWorkload(Workload):
    """Row-partitioned stencil phases with a lock-protected reduction."""

    name = "OCEAN"

    def __init__(self, grid: int = 66, phases: int = 12,
                 flops_per_point: int = 5, seed: int = 23):
        if grid < 4:
            raise WorkloadError("grid must be at least 4x4")
        if phases < 1:
            raise WorkloadError("phases must be >= 1")
        self.grid = grid
        self.phases = phases
        self.flops = flops_per_point
        self.seed = seed

    def programs(self, chip) -> list[Generator]:
        g = self.grid
        rng = random.Random(self.seed)
        ncores = chip.num_cores
        # Two grids (current / next) plus the residual cell and its lock.
        grid_a = chip.allocator.alloc_array(g * g)
        grid_b = chip.allocator.alloc_array(g * g)
        self._a0 = [rng.randrange(VALUE_MOD) for _ in range(g * g)]
        chip.funcmem.store_array(grid_a, self._a0)
        self._grid_a, self._grid_b = grid_a, grid_b
        self._residual = chip.allocator.alloc_line(home=0)
        residual_lock = chip.allocator.alloc_line(home=0)

        def addr(base: int, r: int, c: int) -> int:
            return base + WORD_BYTES * (r * g + c)

        def program(cid: int) -> Generator:
            row_lo, row_hi = chunk_bounds(g - 2, ncores, cid)
            row_lo += 1
            row_hi += 1
            for phase in range(self.phases):
                src, dst = (grid_a, grid_b) if phase % 2 == 0 \
                    else (grid_b, grid_a)
                acc = 0
                for r in range(row_lo, row_hi):
                    for c in range(1, g - 1):
                        # 3-point vertical stencil; north/south rows at
                        # partition edges are the shared ones.
                        center = yield isa.Load(addr(src, r, c))
                        north = yield isa.Load(addr(src, r - 1, c))
                        south = yield isa.Load(addr(src, r + 1, c))
                        yield isa.Compute(self.flops)
                        yield isa.Store(addr(dst, r, c),
                                        (center + north + south)
                                        % VALUE_MOD)
                        acc += 1
                # Lock-protected global residual update (OCEAN's lock use).
                yield isa.AcquireLock(residual_lock)
                value = yield isa.Load(self._residual)
                yield isa.Store(self._residual, value + acc)
                yield isa.ReleaseLock(residual_lock)
                yield isa.BarrierOp()

        return [program(c) for c in range(chip.num_cores)]

    def reference_grids(self) -> tuple[np.ndarray, np.ndarray]:
        """Expected final (grid_a, grid_b) contents."""
        import numpy as np

        g = self.grid
        a = np.array(self._a0, dtype=np.int64).reshape(g, g)
        b = np.zeros((g, g), dtype=np.int64)
        for phase in range(self.phases):
            src, dst = (a, b) if phase % 2 == 0 else (b, a)
            dst[1:-1, 1:-1] = (src[1:-1, 1:-1] + src[:-2, 1:-1]
                               + src[2:, 1:-1]) % VALUE_MOD
        return a, b

    def verify(self, chip) -> None:
        import numpy as np

        g = self.grid
        ref_a, ref_b = self.reference_grids()
        got_a = np.array(chip.funcmem.load_array(self._grid_a, g * g)
                         ).reshape(g, g)
        got_b = np.array(chip.funcmem.load_array(self._grid_b, g * g)
                         ).reshape(g, g)
        assert np.array_equal(got_a, ref_a), "OCEAN grid A mismatch"
        assert np.array_equal(got_b, ref_b), "OCEAN grid B mismatch"
        interior = (g - 2) * (g - 2)
        residual = chip.funcmem.load(self._residual)
        assert residual == self.phases * interior, \
            f"OCEAN residual {residual} != {self.phases * interior}"

    def info(self) -> WorkloadInfo:
        return WorkloadInfo(
            name=self.name,
            input_size=f"{self.grid}x{self.grid} ocean, "
                       f"{self.phases} phases",
            num_barriers=self.phases,
            paper_barriers=364,
            paper_period=205_206,
        )
