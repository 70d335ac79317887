"""Ablation studies for the design choices DESIGN.md calls out.

These go beyond the paper's figures to probe *why* the results hold:

* **Barrier-period sweep** -- the paper's central explanation for the
  kernel/application split is barrier period: vary the compute between
  barriers and watch GL's benefit shrink as the period grows.
* **Entry-overhead sweep** -- the paper notes 13 observed vs 4 theoretical
  cycles; sweep the library overhead from 0 (pure hardware) upward.
* **Hierarchical vs flat** -- the future-work extension: barrier latency
  for meshes beyond 7x7 using clustered G-line networks.
* **DSW tree arity** -- is binary the right combining-tree fan-in?
* **NoC contention on/off** -- how much of the software barriers' cost is
  queueing rather than latency.
* **CSW variant** -- lock-protected counter vs single fetch&add.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator

from ..analysis.report import render_table
from ..chip.cmp import CMP
from ..chip.results import RunResult
from ..common.params import CMPConfig, GLineConfig
from ..cpu import isa
from ..exec.spec import RunSpec
from ..sync.dsw import CombiningTreeBarrier
from ..workloads.base import Workload, WorkloadInfo
from ..workloads.synthetic import SyntheticBarrierWorkload
from .runner import make_spec, run_many


class ComputeBarrierWorkload(Workload):
    """Barriers separated by a fixed compute grain (period sweep)."""

    name = "PeriodSweep"

    def __init__(self, work_cycles: int, iterations: int = 50):
        self.work_cycles = work_cycles
        self.iterations = iterations

    def programs(self, chip) -> list[Generator]:
        def program() -> Generator:
            for _ in range(self.iterations):
                yield isa.Compute(self.work_cycles)
                yield isa.BarrierOp()

        return [program() for _ in range(chip.num_cores)]

    def info(self) -> WorkloadInfo:
        return WorkloadInfo(self.name, f"work={self.work_cycles}",
                            self.iterations, 0, 0)


# ---------------------------------------------------------------------- #
@dataclass
class SweepResult:
    title: str
    headers: list[str]
    rows: list[list] = field(default_factory=list)

    def table(self) -> str:
        return render_table(self.headers, self.rows, title=self.title)


def period_sweep(work_grains=(0, 100, 1_000, 10_000, 100_000),
                 num_cores: int = 32, iterations: int = 20) -> SweepResult:
    """GL benefit vs barrier period (the Figure-6 kernel/app split's
    mechanism)."""
    out = SweepResult(
        title="Ablation: GL speedup vs barrier period",
        headers=["Work/barrier", "DSW cycles", "GL cycles", "GL/DSW",
                 "DSW period"])
    specs = [make_spec(ComputeBarrierWorkload(work, iterations), impl,
                       num_cores)
             for work in work_grains for impl in ("dsw", "gl")]
    runs = run_many(specs)
    for i, work in enumerate(work_grains):
        dsw, gl = runs[2 * i], runs[2 * i + 1]
        out.rows.append([work, dsw.total_cycles, gl.total_cycles,
                         gl.total_cycles / dsw.total_cycles,
                         dsw.barrier_period()])
    return out


def entry_overhead_sweep(overheads=(0, 4, 8, 16, 32),
                         num_cores: int = 32,
                         iterations: int = 100) -> SweepResult:
    """Barrier cost vs library entry overhead (13 observed vs 4 ideal)."""
    out = SweepResult(
        title="Ablation: GL cycles/barrier vs library entry overhead",
        headers=["Entry overhead", "Cycles/barrier"])
    specs = [make_spec(SyntheticBarrierWorkload(iterations=iterations),
                       "gl", num_cores,
                       config=CMPConfig.for_cores(num_cores).with_(
                           gline=GLineConfig(entry_overhead=overhead)))
             for overhead in overheads]
    for overhead, run in zip(overheads, run_many(specs)):
        out.rows.append([overhead,
                         run.total_cycles / run.num_barriers()])
    return out


def hierarchical_latency(core_counts=(16, 36, 49, 64, 144, 256),
                         iterations: int = 50) -> SweepResult:
    """Hardware barrier latency for growing meshes; meshes beyond 7x7
    switch to the clustered (hierarchical) G-line organization."""
    from ..common.params import mesh_dims

    out = SweepResult(
        title="Ablation: GL barrier latency vs mesh size "
              "(hierarchical beyond 7x7)",
        headers=["Cores", "Mesh", "Organization", "Cycles/barrier",
                 "G-lines"])
    configs = {n: CMPConfig.for_cores(n).with_(
        gline=GLineConfig(entry_overhead=0)) for n in core_counts}
    specs = [make_spec(SyntheticBarrierWorkload(iterations=iterations),
                       "gl", n, config=configs[n]) for n in core_counts]
    runs = dict(zip(core_counts, run_many(specs)))
    for n in core_counts:
        rows, cols = mesh_dims(n)
        cfg = configs[n]
        run = runs[n]
        # Re-derive organization/wire count from a fresh context.
        from ..common.stats import StatsRegistry
        from ..gline import (GLineBarrierNetwork, HierarchicalGLineBarrier,
                             build_sync_contexts)
        from ..sim.engine import Engine
        ctx = build_sync_contexts(
            GLineBarrierNetwork, HierarchicalGLineBarrier, Engine(),
            StatsRegistry(n), rows, cols, cfg.gline, name="glnet")[0]
        organization = type(ctx).__name__
        out.rows.append([n, f"{rows}x{cols}", organization,
                         run.total_cycles / run.num_barriers(),
                         ctx.num_glines])
    return out


@dataclass
class TreeAritySpec(RunSpec):
    """A ``dsw`` run on a combining tree of *arity*, swapped in after the
    chip has built its own.  The chip's tree keeps its addresses, so the
    swapped one sits elsewhere and even arity 2 is not the plain ``dsw``
    run: the arity enters the key."""

    arity: int = 2

    def fingerprint(self) -> dict:
        return {**super().fingerprint(), "dsw_arity": self.arity}

    def execute(self, obs=None) -> RunResult:
        chip = CMP(self.config, barrier=self.barrier, obs=obs)
        chip.barrier_impl = CombiningTreeBarrier(
            chip.allocator, list(range(chip.num_cores)), arity=self.arity)
        for tile in chip.tiles:
            tile.core.barrier_binding = chip.barrier_impl
        return chip.run(self.workload, max_events=self.max_events)


def dsw_arity_sweep(arities=(2, 4, 8), num_cores: int = 32,
                    iterations: int = 50) -> SweepResult:
    """Combining-tree fan-in: wider trees mean fewer levels but more
    contention per node."""
    out = SweepResult(
        title="Ablation: DSW combining-tree arity",
        headers=["Arity", "Cycles/barrier", "Messages"])
    specs = [TreeAritySpec(SyntheticBarrierWorkload(iterations=iterations),
                           "dsw", CMPConfig.for_cores(num_cores),
                           arity=arity)
             for arity in arities]
    for arity, run in zip(arities, run_many(specs)):
        out.rows.append([arity, run.total_cycles / run.num_barriers(),
                         run.total_messages()])
    return out


def contention_ablation(num_cores: int = 32,
                        iterations: int = 50) -> SweepResult:
    """Software-barrier cost with and without NoC link contention."""
    out = SweepResult(
        title="Ablation: NoC link contention contribution",
        headers=["Impl", "Contention", "Cycles/barrier"])
    points = [(impl, contention) for impl in ("csw", "dsw")
              for contention in (True, False)]
    specs = []
    for impl, contention in points:
        cfg = CMPConfig.for_cores(num_cores)
        cfg = cfg.with_(noc=cfg.noc.__class__(
            rows=cfg.noc.rows, cols=cfg.noc.cols,
            model_contention=contention))
        specs.append(make_spec(
            SyntheticBarrierWorkload(iterations=iterations), impl,
            num_cores, config=cfg))
    for (impl, contention), run in zip(points, run_many(specs)):
        out.rows.append([impl.upper(), "on" if contention else "off",
                         run.total_cycles / run.num_barriers()])
    return out


def noc_model_ablation(num_cores: int = 16,
                       iterations: int = 30) -> SweepResult:
    """Hop-latency vs flit-accurate virtual cut-through NoC model: the
    paper's conclusions must not depend on interconnect-model fidelity."""
    from dataclasses import replace

    out = SweepResult(
        title="Ablation: NoC timing model (hop-latency vs virtual "
              "cut-through)",
        headers=["Model", "Impl", "Cycles/barrier"])
    points = [(model, impl) for model in ("hop", "vct")
              for impl in ("dsw", "gl")]
    specs = []
    for model, impl in points:
        cfg = CMPConfig.for_cores(num_cores)
        cfg = cfg.with_(noc=replace(cfg.noc, model=model))
        specs.append(make_spec(
            SyntheticBarrierWorkload(iterations=iterations), impl,
            num_cores, config=cfg))
    for (model, impl), run in zip(points, run_many(specs)):
        out.rows.append([model, impl.upper(),
                         run.total_cycles / run.num_barriers()])
    return out


def csw_variant_ablation(num_cores: int = 32,
                         iterations: int = 50) -> SweepResult:
    """Lock-protected counter vs single fetch&add for the centralized
    barrier: how much of CSW's cost is the lock?"""
    out = SweepResult(
        title="Ablation: CSW variant (lock vs fetch&add)",
        headers=["Variant", "Cycles/barrier", "Messages"])
    impls = ("csw", "csw-fa")
    specs = [make_spec(SyntheticBarrierWorkload(iterations=iterations),
                       impl, num_cores) for impl in impls]
    for impl, run in zip(impls, run_many(specs)):
        out.rows.append([impl.upper(),
                         run.total_cycles / run.num_barriers(),
                         run.total_messages()])
    return out
