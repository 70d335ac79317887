"""Golden regression tests against the checked-in results/ tables.

These re-derive a small, fast subset of the numbers pinned in
``results/fig5.txt``, ``results/fig6.txt`` and ``results/fig7.txt``
through the :mod:`repro.exec` executor and assert *exact* equality with
the committed text.  Any change to the simulator that shifts a headline
number must update the results files deliberately.

The subset is chosen for runtime: Figure 5 at 4 and 8 cores (the CSW
runs at 16/32 cores dominate the full figure's cost) and the KERN3 row
of Figures 6/7 (the paper's most dramatic data point: 0.16x time,
0.02x traffic).
"""

from pathlib import Path

import pytest

from repro.analysis.breakdown import Breakdown, BreakdownComparison
from repro.analysis.report import _fmt, pct
from repro.analysis.traffic import Traffic, TrafficComparison
from repro.common.stats import CycleCat
from repro.exec import ParallelRunner, ResultCache, use_executor
from repro.experiments.fig5 import run_fig5
from repro.experiments.runner import compare
from repro.workloads import Kernel3Workload

RESULTS = Path(__file__).resolve().parents[2] / "results"

#: The settings the checked-in tables were generated with, as pinned in
#: the results manifest (repro.experiments.manifest): fig5 at 40
#: iterations, Figures 6/7 at 32 cores and scale 0.5.
FIG5_ITERATIONS = 40
KERN3_ITERATIONS = 75          # Kernel3Workload at scale 0.5
NUM_CORES = 32


def _parse_rows(path: Path) -> dict[str, list[str]]:
    """First table of a results file -> {first cell: [remaining cells]}."""
    rows: dict[str, list[str]] = {}
    lines = path.read_text().splitlines()
    for line in lines[lines.index(next(l for l in lines
                                       if set(l) <= set("-+ "))) + 1:]:
        if not line.strip():
            break
        cells = [c.strip() for c in line.split("|")]
        rows[cells[0]] = cells[1:]
    return rows


@pytest.fixture(scope="module")
def executor(tmp_path_factory):
    cache = ResultCache(tmp_path_factory.mktemp("golden-cache"))
    return ParallelRunner(jobs=1, cache=cache)


@pytest.fixture(scope="module")
def kern3_pair(executor):
    """One DSW-vs-GL pair of KERN3 runs at the checked-in settings."""
    with use_executor(executor):
        return compare(Kernel3Workload(iterations=KERN3_ITERATIONS),
                       num_cores=NUM_CORES)


# ---------------------------------------------------------------------- #
# Figure 5: avg cycles per barrier (4 and 8 cores)
# ---------------------------------------------------------------------- #
def test_fig5_golden_rows(executor):
    golden = _parse_rows(RESULTS / "fig5.txt")
    with use_executor(executor):
        derived = run_fig5(core_counts=(4, 8),
                           iterations=FIG5_ITERATIONS)
    for row_idx, cores in enumerate((4, 8)):
        for col_idx, impl in enumerate(("csw", "dsw", "gl")):
            value = derived.cycles_per_barrier[impl][cores]
            assert _fmt(value) == golden[str(cores)][col_idx], (
                f"fig5 {impl.upper()}@{cores} drifted from "
                f"results/fig5.txt")
    assert derived.is_ordered()


# ---------------------------------------------------------------------- #
# Figure 6: KERN3 normalized execution time
# ---------------------------------------------------------------------- #
def test_fig6_golden_kern3_row(kern3_pair):
    golden = _parse_rows(RESULTS / "fig6.txt")["KERN3"]
    comp = BreakdownComparison(
        benchmark="KERN3",
        baseline=Breakdown.from_result("DSW", kern3_pair.baseline),
        treated=Breakdown.from_result("GL", kern3_pair.treated))
    base_total = comp.baseline.total
    assert _fmt(comp.normalized_treated_total) == golden[0] == "0.16"
    assert pct(comp.time_reduction) == golden[1] == "83.8%"
    assert pct(comp.baseline.cycles.get(CycleCat.BARRIER, 0)
               / base_total) == golden[3] == "85.2%"
    assert pct(comp.treated.cycles.get(CycleCat.BARRIER, 0)
               / base_total) == golden[4] == "1.4%"


# ---------------------------------------------------------------------- #
# Figure 7: KERN3 normalized network messages
# ---------------------------------------------------------------------- #
def test_fig7_golden_kern3_row(kern3_pair):
    golden = _parse_rows(RESULTS / "fig7.txt")["KERN3"]
    comp = TrafficComparison(
        benchmark="KERN3",
        baseline=Traffic.from_result("DSW", kern3_pair.baseline),
        treated=Traffic.from_result("GL", kern3_pair.treated))
    assert _fmt(comp.baseline.total) == golden[0] == "28,892"
    assert _fmt(comp.treated.total) == golden[1] == "558"
    assert _fmt(comp.normalized_treated_total) == golden[2] == "0.02"
    assert pct(comp.traffic_reduction) == golden[3] == "98.1%"


# ---------------------------------------------------------------------- #
# Warm path: the same numbers served entirely from cache
# ---------------------------------------------------------------------- #
def test_goldens_reproduce_from_cache(executor, kern3_pair):
    """Re-deriving the KERN3 pair must be all cache hits and identical --
    the executor's core guarantee, checked on real experiment data."""
    hits_before, misses_before = executor.hits, executor.misses
    with use_executor(executor):
        warm = compare(Kernel3Workload(iterations=KERN3_ITERATIONS),
                       num_cores=NUM_CORES)
    assert executor.hits == hits_before + 2
    assert executor.misses == misses_before
    assert warm.baseline.to_dict() == kern3_pair.baseline.to_dict()
    assert warm.treated.to_dict() == kern3_pair.treated.to_dict()
