"""UNSTRUCTURED-like computational fluid dynamics application.

UNSTRUCTURED (Mukherjee et al.) sweeps the edges and faces of an irregular
3D mesh, accumulating into node values; it synchronizes with barriers
between sweep phases and uses locks for reduction updates.  The paper
reports it barrier-poor (80 barriers, ~67k-cycle period) and -- key to its
results -- *imbalanced*, so barrier latency is dominated by the S2
(busy-wait) stage and a faster barrier network buys almost nothing.

Our re-implementation builds a random irregular mesh (via networkx, seeded
for determinism), partitions its edges across cores with a deliberate skew
(reproducing the imbalance), and runs lock-sprinkled edge sweeps separated
by barriers.
"""

from __future__ import annotations

from typing import Generator

from ..common.errors import WorkloadError
from ..cpu import isa
from ..mem.address import WORD_BYTES
from .base import Workload, WorkloadInfo, skewed_bounds


class UnstructuredWorkload(Workload):
    """Skew-partitioned irregular edge sweeps with locks."""

    name = "UNSTR"

    def __init__(self, nodes: int = 512, edge_factor: int = 4,
                 phases: int = 10, skew: float = 0.45,
                 flops_per_edge: int = 4, seed: int = 2010):
        if nodes < 8:
            raise WorkloadError("need at least 8 mesh nodes")
        if phases < 1:
            raise WorkloadError("phases must be >= 1")
        if edge_factor < 1:
            raise WorkloadError("edge_factor must be >= 1")
        self.nodes = nodes
        self.num_edges = nodes * edge_factor
        self.phases = phases
        self.skew = skew
        self.flops = flops_per_edge
        self.seed = seed
        import networkx as nx

        graph = nx.gnm_random_graph(nodes, self.num_edges, seed=seed)
        self.edges: list[tuple[int, int]] = sorted(graph.edges())
        if not self.edges:
            raise WorkloadError("generated mesh has no edges")

    def programs(self, chip) -> list[Generator]:
        import random as _random
        rng = _random.Random(self.seed + 7)
        ncores = chip.num_cores
        node_vals = chip.allocator.alloc_array(self.nodes)
        node_acc = chip.allocator.alloc_array(self.nodes)
        chip.funcmem.store_array(
            node_vals, [rng.randrange(100) for _ in range(self.nodes)])
        self._reduction = chip.allocator.alloc_line(home=0)
        reduction = self._reduction
        reduction_lock = chip.allocator.alloc_line(home=0)
        nedges = len(self.edges)

        def program(cid: int) -> Generator:
            lo, hi = skewed_bounds(nedges, ncores, cid, self.skew)
            for _phase in range(self.phases):
                acc = 0
                for u, v in self.edges[lo:hi]:
                    # Irregular gather from both endpoints, scatter into
                    # the accumulation array (false/true sharing patterns
                    # arise naturally from the random mesh).
                    uv = yield isa.Load(node_vals + WORD_BYTES * u)
                    vv = yield isa.Load(node_vals + WORD_BYTES * v)
                    yield isa.Compute(self.flops)
                    yield isa.Store(node_acc + WORD_BYTES * u, uv + vv)
                    acc += 1
                # Lock-protected global reduction per phase.
                yield isa.AcquireLock(reduction_lock)
                value = yield isa.Load(reduction)
                yield isa.Store(reduction, value + acc)
                yield isa.ReleaseLock(reduction_lock)
                yield isa.BarrierOp()

        return [program(c) for c in range(chip.num_cores)]

    def verify(self, chip) -> None:
        """The per-node scatter is last-writer-wins (timing-dependent), so
        the verifiable result is the lock-protected reduction: each phase
        contributes exactly one count per edge."""
        expected = self.phases * len(self.edges)
        got = chip.funcmem.load(self._reduction)
        assert got == expected, \
            f"UNSTRUCTURED reduction {got} != {expected}"

    def info(self) -> WorkloadInfo:
        return WorkloadInfo(
            name=self.name,
            input_size=f"mesh {self.nodes}n/{len(self.edges)}e, "
                       f"{self.phases} phases, skew {self.skew}",
            num_barriers=self.phases,
            paper_barriers=80,
            paper_period=67_361,
        )
