"""The results manifest: how every committed file under ``results/`` is made.

Each :class:`Experiment` is one driver call.  It names the driver, the
arguments pinned for the committed files, the exact renderer of each
file it writes and the shape checks of :mod:`repro.analysis.validation`
its result must pass.  This is the only place those are set:

* ``repro all --out DIR`` writes exactly the files of :data:`MANIFEST`,
  and ``diff -r results DIR`` is the regression check;
* each figure subcommand (``repro fig5``, ``repro ablations NAME`` ...)
  renders its own entries, its flags overriding the pinned arguments;
* ``scripts/generate_experiments.py`` takes every number of
  EXPERIMENTS.md from these entries.

A failed check makes the command that ran it exit 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from ..analysis.figures import fig5_chart, fig6_chart, fig7_chart
from ..analysis.validation import (
    Check, check_area, check_contention, check_csw_variant, check_dsw_arity,
    check_energy, check_entry_overhead, check_fig5, check_fig5_growth,
    check_fig7_apps, check_hierarchical, check_noc_model, check_period_sweep,
    check_sensitivity, check_shootout, check_stages, check_table1,
    check_table2, check_table2_periods, render_checklist, validate_all)
from ..dse import front_json, run_search, space_from_arg
from ..exec import current_executor
from ..gline.area import comparison_rows
from .ablations import (SweepResult, contention_ablation,
                        csw_variant_ablation, dsw_arity_sweep,
                        entry_overhead_sweep, hierarchical_latency,
                        noc_model_ablation, period_sweep)
from .collectives_exp import run_collectives
from .energy_exp import EnergyResult, run_energy
from .fig5 import run_fig5
from .fig7 import run_fig6_and_fig7
from .integrity import run_integrity
from .sensitivity import (l2_latency_sweep, memory_latency_sweep,
                          router_latency_sweep)
from .software_barriers import run_shootout
from .stages import run_stages
from .table1 import run_table1
from .table2 import run_table2


def _no_checks(result: Any) -> list[Check]:
    return []


@dataclass(frozen=True)
class Experiment:
    """One driver call and the committed files rendered from its result."""

    name: str
    driver: Callable[..., Any]
    #: The driver arguments the committed files were generated with.
    args: Mapping[str, Any]
    #: File name under ``results/`` -> its exact text, from the result.
    files: Mapping[str, Callable[[Any], str]]
    checks: Callable[[Any], list[Check]] = _no_checks
    #: The subcommand that renders this entry besides ``all`` (None:
    #: only ``all``).
    command: str | None = None

    def run(self, **overrides: Any) -> Any:
        """The driver's result at the pinned arguments plus *overrides*."""
        return self.driver(**{**self.args, **overrides})


def _text(*parts: str) -> str:
    """File text: *parts* separated by blank lines, newline-terminated."""
    return "\n\n".join(parts) + "\n"


def _table(result: Any) -> str:
    return _text(result.table())


def _checklist(checks: Callable[[Any], list[Check]]
               ) -> Callable[[Any], str]:
    return lambda result: _text(render_checklist(checks(result)))


def _energy(result: EnergyResult) -> str:
    return _text(
        f"{result.table()}\naverage network-energy reduction: "
        f"{result.average_reduction() * 100:.1f}%   G-line share of GL "
        f"energy: {result.gline_share() * 100:.2f}%")


def _figs_checklist(result: tuple) -> list[Check]:
    return validate_all(fig6=result[0], fig7=result[1])


def _area(meshes=((4, 4), (4, 8), (7, 7))) -> SweepResult:
    """Wire budgets of the barrier interconnects (:mod:`repro.gline.area`)."""
    out = SweepResult(
        title="Barrier-interconnect area comparison",
        headers=["Mesh", "Organization", "Wires",
                 "Wire length (tile edges)", "Max fan-in"])
    for rows, cols in meshes:
        for budget in comparison_rows(rows, cols):
            out.rows.append([f"{rows}x{cols}", budget.organization,
                             budget.wires, budget.length, budget.max_fanin])
    return out


def _dse_front(space: str, budget: int, seed: int, rungs: tuple[int, ...]):
    """A seeded Pareto search through the ambient executor."""
    return run_search(space_from_arg(space), budget=budget, seed=seed,
                      runner=current_executor(), rungs=rungs)


def _ablation(name: str, driver: Callable[..., SweepResult],
              checks: Callable[[SweepResult], list[Check]],
              **args: Any) -> Experiment:
    return Experiment(name, driver, args, {f"ablation_{name}.txt": _table},
                      checks, command="ablations")


def _sensitivity(name: str, driver: Callable[..., SweepResult]
                 ) -> Experiment:
    return Experiment(f"sensitivity_{name}", driver,
                      {"num_cores": 16, "iterations": 20},
                      {f"sensitivity_{name}.txt": _table}, check_sensitivity)


#: Table 2 and Figures 6/7 at the paper's 32 cores, iterations halved.
_PAPER_CHIP = {"num_cores": 32, "scale": 0.5}

MANIFEST: tuple[Experiment, ...] = (
    Experiment("table1", run_table1, {}, {"table1.txt": _text},
               lambda _: check_table1(), command="table1"),
    Experiment("table2", run_table2, _PAPER_CHIP,
               {"table2.txt": _table,
                "table2_checks.txt": _checklist(check_table2)},
               lambda r: check_table2(r) + check_table2_periods(r),
               command="table2"),
    Experiment("fig5", run_fig5, {"iterations": 40},
               {"fig5.txt": lambda r: _text(
                   r.table(), fig5_chart(r.cycles_per_barrier)),
                "fig5_checks.txt": _checklist(check_fig5)},
               lambda r: check_fig5(r) + check_fig5_growth(r),
               command="fig5"),
    Experiment("figs", run_fig6_and_fig7, _PAPER_CHIP,
               {"fig6.txt": lambda r: _text(
                   r[0].table(), r[0].stacked_table(),
                   fig6_chart(r[0].comparisons)),
                "fig7.txt": lambda r: _text(
                    r[1].table(), r[1].stacked_table(),
                    fig7_chart(r[1].comparisons)),
                "fig6_fig7_checks.txt": _checklist(_figs_checklist)},
               lambda r: _figs_checklist(r) + check_fig7_apps(r[1]),
               command="figs"),
    Experiment("energy", run_energy, _PAPER_CHIP, {"energy.txt": _energy},
               check_energy, command="energy"),
    Experiment("stages", run_stages, _PAPER_CHIP, {"stages.txt": _table},
               check_stages, command="stages"),
    Experiment("shootout", run_shootout, {"iterations": 20},
               {"shootout.txt": _table}, check_shootout,
               command="shootout"),
    Experiment("collectives", run_collectives,
               {"iterations": 24, "value_width": 8},
               {"collectives.txt": _table}, command="collectives"),
    _ablation("period_sweep", period_sweep, check_period_sweep,
              num_cores=16, iterations=15),
    _ablation("entry_overhead", entry_overhead_sweep, check_entry_overhead,
              num_cores=16, iterations=40),
    _ablation("hierarchical", hierarchical_latency, check_hierarchical,
              iterations=25),
    _ablation("dsw_arity", dsw_arity_sweep, check_dsw_arity,
              num_cores=16, iterations=20),
    _ablation("contention", contention_ablation, check_contention,
              num_cores=16, iterations=20),
    _ablation("csw_variant", csw_variant_ablation, check_csw_variant,
              num_cores=16, iterations=20),
    _ablation("noc_model", noc_model_ablation, check_noc_model,
              num_cores=16, iterations=20),
    Experiment("area", _area, {}, {"area.txt": _table}, check_area),
    _sensitivity("memory", memory_latency_sweep),
    _sensitivity("router", router_latency_sweep),
    _sensitivity("l2", l2_latency_sweep),
    Experiment("integrity", run_integrity, {"num_cores": 32},
               {"integrity.txt": _table}, command="integrity"),
    Experiment("dse_front", _dse_front,
               {"space": "smoke", "budget": 12, "seed": 7, "rungs": (2, 4)},
               {"dse_front.json": front_json}),
)

