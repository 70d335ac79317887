"""Automated reproduction-shape validation.

Encodes every qualitative claim the reproduction must satisfy -- the
orderings, crossovers and rough factors of the paper's evaluation -- as
named checks over experiment results.  The results manifest
(:mod:`repro.experiments.manifest`) runs them on every regeneration --
``repro all --out DIR`` and each figure subcommand exit 1 when one
fails -- and renders the Figure-5, Figure-6/7 and Table-2 checklists
into ``results/``.

A check returns ``(name, passed, detail)``; `validate_all` aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..experiments.ablations import SweepResult
from ..experiments.energy_exp import EnergyResult
from ..experiments.fig5 import Fig5Result
from ..experiments.fig6 import Fig6Result
from ..experiments.fig7 import Fig7Result
from ..experiments.sensitivity import gl_is_platform_insensitive
from ..experiments.software_barriers import ShootoutResult
from ..experiments.stages import StagesResult
from ..experiments.table1 import matches_paper
from ..experiments.table2 import Table2Result
from .report import pct


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str

    def __str__(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.name}: {self.detail}"


# ---------------------------------------------------------------------- #
def check_fig5(result: Fig5Result) -> list[Check]:
    checks = []
    checks.append(Check(
        "fig5.ordering", result.is_ordered(),
        "CSW > DSW > GL at every core count"))
    gl = result.cycles_per_barrier.get("gl", {})
    flat = len({round(v) for v in gl.values()}) == 1 if gl else False
    checks.append(Check(
        "fig5.gl_flat", flat,
        f"GL constant across core counts: {sorted(gl.values())}"))
    checks.append(Check(
        "fig5.gl_13_cycles",
        all(abs(v - 13) <= 1 for v in gl.values()) if gl else False,
        "GL ~13 cycles (4-cycle network + library overhead)"))
    csw = result.cycles_per_barrier.get("csw", {})
    if csw and len(csw) >= 2:
        xs = sorted(csw)
        growth = csw[xs[-1]] / csw[xs[0]]
        checks.append(Check(
            "fig5.csw_superlinear", growth > (xs[-1] / xs[0]),
            f"CSW grows {growth:.1f}x from {xs[0]} to {xs[-1]} cores"))
    return checks


def check_fig6(result: Fig6Result) -> list[Check]:
    t = {n: c.normalized_treated_total
         for n, c in result.comparisons.items()}
    checks = [
        Check("fig6.kernels_improve_a_lot", result.avg_k < 0.55,
              f"AVG_K = {result.avg_k:.2f} (paper 0.32)"),
        Check("fig6.apps_improve_a_little", 0.6 < result.avg_a < 1.0,
              f"AVG_A = {result.avg_a:.2f} (paper 0.79)"),
        Check("fig6.kernel_ordering",
              t["KERN3"] < t["KERN2"] < t["KERN6"],
              f"K3 {t['KERN3']:.2f} < K2 {t['KERN2']:.2f} "
              f"< K6 {t['KERN6']:.2f}"),
        Check("fig6.em3d_best_app",
              t["EM3D"] < min(t["UNSTR"], t["OCEAN"]),
              f"EM3D {t['EM3D']:.2f} vs UNSTR {t['UNSTR']:.2f} / "
              f"OCEAN {t['OCEAN']:.2f}"),
        Check("fig6.imbalanced_apps_static",
              t["UNSTR"] > 0.85 and t["OCEAN"] > 0.85,
              "UNSTR/OCEAN improve only a few percent"),
    ]
    return checks


def check_fig7(result: Fig7Result) -> list[Check]:
    m = {n: c.normalized_treated_total
         for n, c in result.comparisons.items()}
    return [
        Check("fig7.kern3_traffic_vanishes", m["KERN3"] < 0.1,
              f"KERN3 GL/DSW = {m['KERN3']:.3f} (paper 0.0018)"),
        Check("fig7.kernel_ordering",
              m["KERN3"] < m["KERN2"] < m["KERN6"],
              f"K3 {m['KERN3']:.2f} < K2 {m['KERN2']:.2f} "
              f"< K6 {m['KERN6']:.2f}"),
        Check("fig7.em3d_halves",
              0.3 < m["EM3D"] < 0.75,
              f"EM3D GL/DSW = {m['EM3D']:.2f} (paper 0.49)"),
        Check("fig7.apps_static",
              m["UNSTR"] > 0.8 and m["OCEAN"] > 0.8,
              "UNSTR/OCEAN traffic barely moves"),
        Check("fig7.kernel_avg", result.avg_k < 0.5,
              f"AVG_K = {result.avg_k:.2f} (paper 0.26)"),
    ]


def check_table2(result: Table2Result) -> list[Check]:
    order = result.period_ordering()
    fine = {"Synthetic", "KERN2", "KERN3", "EM3D", "KERN6"}
    coarse_last = set(order[-2:]) == {"UNSTR", "OCEAN"}
    counts_ok = all(r.measured_barriers == r.info.num_barriers
                    for r in result.rows)
    return [
        Check("table2.apps_coarsest", coarse_last,
              f"period ordering: {' < '.join(order)}"),
        Check("table2.synthetic_finest", order[0] == "Synthetic",
              "the empty-loop benchmark has the shortest period"),
        Check("table2.barrier_counts", counts_ok,
              "measured barrier counts equal declared structure"),
        Check("table2.fine_before_coarse",
              all(o in fine for o in order[:-2]),
              "kernels + EM3D all finer-grain than the applications"),
    ]


# ---------------------------------------------------------------------- #
# Claims outside the rendered checklists: the manifest runs these next to
# the checks above, but no results file lists them.
def check_table1() -> list[Check]:
    return [Check("table1.matches_paper", matches_paper(),
                  "cores, line size and memory latency as in the paper")]


def check_table2_periods(result: Table2Result) -> list[Check]:
    period = {r.info.name: r.measured_period for r in result.rows}
    apps = min(period["OCEAN"], period["UNSTR"])
    fine = max(period[n] for n in ("Synthetic", "KERN2", "KERN3", "EM3D"))
    return [Check("table2.apps_longest_period", apps > fine,
                  f"shortest app period {apps:,.0f} vs longest "
                  f"fine-grain {fine:,.0f}")]


def check_fig5_growth(result: Fig5Result) -> list[Check]:
    csw = result.cycles_per_barrier["csw"]
    dsw = result.cycles_per_barrier["dsw"]
    lo, hi = min(result.core_counts), max(result.core_counts)
    return [
        Check("fig5.dsw_grows", dsw[hi] > dsw[lo],
              f"DSW {dsw[lo]:,.0f} -> {dsw[hi]:,.0f} cycles"),
        Check("fig5.csw_outgrows_dsw",
              csw[hi] / dsw[hi] > csw[lo] / dsw[lo],
              f"CSW/DSW {csw[lo] / dsw[lo]:.1f}x at {lo} cores, "
              f"{csw[hi] / dsw[hi]:.1f}x at {hi}"),
    ]


def check_fig7_apps(result: Fig7Result) -> list[Check]:
    m = {n: c.normalized_treated_total
         for n, c in result.comparisons.items()}
    return [
        Check("fig7.apps_avg", result.avg_a < 1.0,
              f"AVG_A = {result.avg_a:.2f} (paper 0.82)"),
        Check("fig7.em3d_best_app", m["EM3D"] < min(m["UNSTR"], m["OCEAN"]),
              f"EM3D {m['EM3D']:.2f} vs UNSTR {m['UNSTR']:.2f} / "
              f"OCEAN {m['OCEAN']:.2f}"),
    ]


def check_stages(result: StagesResult) -> list[Check]:
    s2 = result.s2_share
    names = dict.fromkeys(r.benchmark for r in result.rows)
    return [
        Check("stages.unstr_s2_dominated", s2("UNSTR", "GL") > 0.8,
              f"UNSTR S2 share under GL {pct(s2('UNSTR', 'GL'))}"),
        Check("stages.ocean_s2_dominated", s2("OCEAN", "GL") > 0.5,
              f"OCEAN S2 share under GL {pct(s2('OCEAN', 'GL'))}"),
        Check("stages.kern3_dsw_mechanism", s2("KERN3", "DSW") < 0.6,
              f"KERN3 S2 share under DSW {pct(s2('KERN3', 'DSW'))}"),
        Check("stages.gl_collapses_mechanism",
              all(s2(n, "GL") >= s2(n, "DSW") - 0.05 for n in names),
              "GL's S2 share within 5 points of DSW's or above, "
              "every benchmark"),
    ]


def check_energy(result: EnergyResult) -> list[Check]:
    return [
        Check("energy.average_reduction", result.average_reduction() > 0.15,
              f"average reduction {pct(result.average_reduction())}"),
        Check("energy.gline_share", result.gline_share() < 0.05,
              f"G-line share of GL energy {pct(result.gline_share())}"),
    ]


def check_shootout(result: ShootoutResult) -> list[Check]:
    cpb = result.cycles_per_barrier
    margin = {n: result.gl_margin(n) for n in result.core_counts}
    lo, hi = min(margin), max(margin)
    return [
        Check("shootout.gl_margin", all(m > 5 for m in margin.values()),
              f"GL beats the best software barrier by "
              f"{min(margin.values()):.0f}x or more"),
        Check("shootout.margin_grows", margin[hi] > margin[lo],
              f"{margin[lo]:.0f}x at {lo} cores, {margin[hi]:.0f}x at {hi}"),
        Check("shootout.diss_dsw_csw",
              all(cpb["diss"][n] <= cpb["dsw"][n] <= cpb["csw"][n]
                  for n in result.core_counts if n >= 8),
              "dissemination <= combining tree <= centralized, 8+ cores"),
    ]


def check_area(result: SweepResult) -> list[Check]:
    return [Check("area.gline_row", "G-line network" in result.table(),
                  "the G-line organization is tabulated")]


def check_sensitivity(result: SweepResult) -> list[Check]:
    dsw = [row[1] for row in result.rows]
    swept = result.headers[0]               # e.g. "Memory latency"
    name = f"sensitivity_{swept.split()[0].lower()}"
    return [
        Check(f"{name}.gl_constant", gl_is_platform_insensitive(result),
              f"{swept}: GL cycles/barrier constant"),
        Check(f"{name}.dsw_grows", dsw == sorted(dsw) and dsw[-1] > dsw[0],
              f"{swept}: DSW {dsw[0]:,.0f} -> {dsw[-1]:,.0f} cycles/barrier"),
    ]


def check_period_sweep(result: SweepResult) -> list[Check]:
    ratios = [row[3] for row in result.rows]
    return [
        Check("period_sweep.advantage_decays",
              all(a <= b + 0.02 for a, b in zip(ratios, ratios[1:])),
              "GL/DSW " + " -> ".join(f"{r:.2f}" for r in ratios)),
        Check("period_sweep.ratio_range", ratios[0] < 0.2 and ratios[-1] > 0.9,
              "GL/DSW below 0.2 without work, above 0.9 at the longest "
              "period"),
    ]


def check_entry_overhead(result: SweepResult) -> list[Check]:
    return [Check("entry_overhead.exact_cost",
                  all(cycles == overhead + 1 + 4
                      for overhead, cycles in result.rows),
                  "cycles/barrier = overhead + 1-cycle write + 4-cycle "
                  "network")]


def check_hierarchical(result: SweepResult) -> list[Check]:
    rows = {r[0]: r for r in result.rows}
    return [
        Check("hierarchical.flat_floor", rows[16][3] == rows[49][3] == 5,
              "4x4 and 7x7 at the 5-cycle floor (write + 4)"),
        Check("hierarchical.8x8_bounded", 5 < rows[64][3] <= 20,
              f"8x8 at {rows[64][3]:.0f} cycles"),
        Check("hierarchical.12x12_bounded", 5 < rows[144][3] <= 24,
              f"12x12 at {rows[144][3]:.0f} cycles"),
        Check("hierarchical.8x8_clustered",
              rows[64][2] == "HierarchicalGLineBarrier",
              f"8x8 builds {rows[64][2]}"),
    ]


def check_dsw_arity(result: SweepResult) -> list[Check]:
    return [Check("dsw_arity.three_arities", len(result.rows) == 3,
                  f"{len(result.rows)} arities swept")]


def check_contention(result: SweepResult) -> list[Check]:
    cyc = {(r[0], r[1]): r[2] for r in result.rows}
    return [Check(f"contention.{impl.lower()}_off_not_slower",
                  cyc[impl, "off"] <= cyc[impl, "on"],
                  f"{impl} {cyc[impl, 'off']:,.0f} cycles without link "
                  f"contention, {cyc[impl, 'on']:,.0f} with")
            for impl in ("CSW", "DSW")]


def check_noc_model(result: SweepResult) -> list[Check]:
    cyc = {(r[0], r[1]): r[2] for r in result.rows}
    return [Check("noc_model.gl_model_independent",
                  cyc["hop", "GL"] == cyc["vct", "GL"],
                  "GL never touches the data network")] + [
        Check(f"noc_model.gl_wins_{model}",
              cyc[model, "GL"] < cyc[model, "DSW"],
              f"{model}: GL {cyc[model, 'GL']:,.0f} vs DSW "
              f"{cyc[model, 'DSW']:,.0f} cycles")
        for model in ("hop", "vct")]


def check_csw_variant(result: SweepResult) -> list[Check]:
    cyc = {r[0]: r[1] for r in result.rows}
    return [Check("csw_variant.fa_faster", cyc["CSW-FA"] < cyc["CSW"],
                  f"CSW-FA {cyc['CSW-FA']:,.0f} vs CSW {cyc['CSW']:,.0f} "
                  f"cycles/barrier")]


def validate_all(fig5: Fig5Result | None = None,
                 fig6: Fig6Result | None = None,
                 fig7: Fig7Result | None = None,
                 table2: Table2Result | None = None) -> list[Check]:
    checks: list[Check] = []
    if fig5 is not None:
        checks += check_fig5(fig5)
    if fig6 is not None:
        checks += check_fig6(fig6)
    if fig7 is not None:
        checks += check_fig7(fig7)
    if table2 is not None:
        checks += check_table2(table2)
    return checks


def render_checklist(checks: list[Check]) -> str:
    lines = [str(c) for c in checks]
    passed = sum(c.passed for c in checks)
    lines.append(f"-- {passed}/{len(checks)} shape checks passed")
    return "\n".join(lines)


def all_passed(checks: list[Check]) -> bool:
    return all(c.passed for c in checks)
