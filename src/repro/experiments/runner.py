"""Shared experiment plumbing: build a chip, run a workload, compare.

Every benchmark run funnels through :func:`run_benchmark` (or the batch
helpers :func:`run_many` / :func:`compare_many`), which route through the
ambient :class:`repro.exec.ParallelRunner`.  By default that executor is
sequential and uncached -- identical behavior to running the chip
directly -- but the CLI's ``--jobs``/``--cache-dir`` flags (or a
``use_executor`` block) turn the same call sites into cache-aware
parallel fan-out without the drivers changing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from ..chip.cmp import CMP
from ..chip.results import RunResult
from ..common.params import CMPConfig
from ..exec.parallel import current_executor
from ..exec.spec import RunSpec, SpecError
from ..workloads.base import Workload


def paper_config(num_cores: int) -> CMPConfig:
    """Table-1 configuration as the paper *evaluated* it.

    The paper states a 6-transmitter S-CSMA bound (hence 7x7 max), yet its
    32-core evaluation mesh is 4x8 -- whose rows carry 7 slave
    transmitters -- and reports the flat single-level 13-cycle GL barrier
    there.  To reproduce the evaluation we follow the evaluation, not the
    stated bound: raise ``max_transmitters`` just enough for the chosen
    mesh to fit a single-level network.  The library default elsewhere
    remains the paper's stated 6 (and larger meshes use the hierarchical
    extension).  See DESIGN.md.
    """
    cfg = CMPConfig.for_cores(num_cores)
    need = max(cfg.noc.rows, cfg.noc.cols) - 1
    if need > cfg.gline.max_transmitters:
        cfg = cfg.with_(gline=replace(cfg.gline, max_transmitters=need))
    return cfg


# ---------------------------------------------------------------------- #
# Executor routing
# ---------------------------------------------------------------------- #
def make_spec(workload: Workload, barrier: str, num_cores: int = 32,
              config: CMPConfig | None = None,
              max_events: int | None = None) -> RunSpec:
    """Build the :class:`RunSpec` for one benchmark run (raises
    :class:`~repro.exec.SpecError` for non-fingerprintable workloads)."""
    return RunSpec.make(workload, barrier, num_cores=num_cores,
                        config=config, max_events=max_events)


def run_many(specs: Sequence[RunSpec]) -> list[RunResult]:
    """Execute a batch of independent runs through the ambient executor
    (parallel and cached when the caller installed such an executor)."""
    return current_executor().run(specs)


def run_points(points: Sequence[tuple[Workload, str, int]]
               ) -> list[RunResult]:
    """Run each ``(workload, barrier, num_cores)`` point on the Table-1
    chip, as one batch through the ambient executor -- or, when a
    workload cannot be a spec, each as :func:`run_benchmark` runs it."""
    try:
        specs = [make_spec(wl, barrier, n) for wl, barrier, n in points]
    except SpecError:
        return [run_benchmark(wl, barrier, n) for wl, barrier, n in points]
    return run_many(specs)


def run_benchmark(workload: Workload, barrier: str, num_cores: int = 32,
                  config: CMPConfig | None = None,
                  max_events: int | None = None) -> RunResult:
    """Run *workload* on a fresh chip with the given barrier kind."""
    try:
        spec = make_spec(workload, barrier, num_cores, config, max_events)
    except SpecError:
        # Workload state cannot be captured as a stable spec (e.g. a plain
        # list of generators): run it directly, bypassing pool and cache.
        cfg = config or paper_config(num_cores)
        chip = CMP(cfg, barrier=barrier)
        return chip.run(workload, max_events=max_events)
    return current_executor().run_one(spec)


@dataclass
class Comparison:
    """Paired runs of one workload under two barrier implementations."""

    workload: Workload
    baseline: RunResult
    treated: RunResult

    @property
    def time_ratio(self) -> float:
        return self.treated.total_cycles / (self.baseline.total_cycles or 1)

    @property
    def traffic_ratio(self) -> float:
        return self.treated.total_messages() / \
            (self.baseline.total_messages() or 1)


def compare(workload: Workload, num_cores: int = 32,
            baseline: str = "dsw", treated: str = "gl",
            config: CMPConfig | None = None) -> Comparison:
    """Run *workload* under *baseline* and *treated* barriers."""
    try:
        specs = [make_spec(workload, kind, num_cores, config)
                 for kind in (baseline, treated)]
    except SpecError:
        return Comparison(
            workload=workload,
            baseline=run_benchmark(workload, baseline, num_cores, config),
            treated=run_benchmark(workload, treated, num_cores, config),
        )
    base_run, treat_run = run_many(specs)
    return Comparison(workload=workload, baseline=base_run,
                      treated=treat_run)


def compare_many(workloads: Mapping[str, Workload], num_cores: int = 32,
                 baseline: str = "dsw", treated: str = "gl",
                 config: CMPConfig | None = None) -> dict[str, Comparison]:
    """Paired baseline/treated runs for a whole benchmark suite, submitted
    as one batch so a parallel executor overlaps *all* of them (the
    Figure-6/7 drivers' hot path)."""
    batched: list[tuple[str, Workload]] = []
    specs: list[RunSpec] = []
    out: dict[str, Comparison] = {}
    for name, wl in workloads.items():
        try:
            pair = [make_spec(wl, kind, num_cores, config)
                    for kind in (baseline, treated)]
        except SpecError:
            out[name] = compare(wl, num_cores, baseline, treated, config)
            continue
        batched.append((name, wl))
        specs.extend(pair)
    results = run_many(specs)
    for i, (name, wl) in enumerate(batched):
        out[name] = Comparison(workload=wl, baseline=results[2 * i],
                               treated=results[2 * i + 1])
    # Preserve the suite's ordering (fallbacks were inserted eagerly).
    return {name: out[name] for name in workloads}
