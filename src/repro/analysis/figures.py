"""ASCII figure rendering.

The results manifest regenerates the paper's figures as *data* tables;
this module additionally renders them as terminal graphics so the shape is
visible at a glance: a log-scale line chart for Figure 5 and horizontal
stacked bars for Figures 6/7.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

#: Fill characters for stacked-bar categories, in order.
STACK_CHARS = "#=+:.~"


def log_chart(series: Mapping[str, Mapping[int, float]],
              title: str = "", height: int = 12,
              width_per_point: int = 10) -> str:
    """Render ``label -> {x: y}`` series as a log10-scale ASCII chart.

    X positions are the union of all series' keys, sorted; each series is
    drawn with its own marker letter (first letter of its label).
    """
    xs = sorted({x for ys in series.values() for x in ys})
    if not xs:
        return title
    values = [y for ys in series.values() for y in ys.values() if y > 0]
    lo = math.floor(math.log10(min(values)))
    hi = math.ceil(math.log10(max(values)))
    hi = max(hi, lo + 1)

    def row_of(y: float) -> int:
        """Map a value to a chart row (0 = top)."""
        frac = (math.log10(max(y, 10 ** lo)) - lo) / (hi - lo)
        return (height - 1) - min(height - 1, round(frac * (height - 1)))

    grid = [[" "] * (len(xs) * width_per_point) for _ in range(height)]
    for label, ys in series.items():
        marker = label[0].upper()
        for i, x in enumerate(xs):
            if x in ys and ys[x] > 0:
                col = i * width_per_point + width_per_point // 2
                grid[row_of(ys[x])][col] = marker

    lines = [title, "=" * max(len(title), 1)] if title else []
    for r, row in enumerate(grid):
        # Left axis: the decade label at rows that land on a decade.
        frac = 1 - r / (height - 1)
        decade = lo + frac * (hi - lo)
        near = round(decade)
        is_decade = abs(decade - near) < 0.5 / (height - 1)
        axis = f"1e{near:<3}" if is_decade else "     "
        lines.append(f"{axis}|" + "".join(row))
    lines.append("     +" + "-" * (len(xs) * width_per_point))
    ticks = "      "
    for x in xs:
        ticks += str(x).center(width_per_point)
    lines.append(ticks)
    legend = "      " + "   ".join(f"{label[0].upper()}={label}"
                                   for label in series)
    lines.append(legend)
    return "\n".join(lines)


def stacked_bar(fractions: Sequence[float], width: int = 50) -> str:
    """One horizontal stacked bar; ``fractions`` are absolute widths
    relative to the full bar (their sum may be < or > 1)."""
    out = []
    for i, frac in enumerate(fractions):
        out.append(STACK_CHARS[i % len(STACK_CHARS)]
                   * max(0, round(frac * width)))
    return "".join(out)


def stacked_bar_chart(rows: Sequence[tuple[str, Sequence[float]]],
                      categories: Sequence[str], title: str = "",
                      width: int = 50) -> str:
    """Render labelled stacked bars (Figure 6/7 style).

    ``rows`` are ``(label, fractions)`` with fractions normalized to the
    chart's reference total (1.0 = full width).
    """
    label_w = max((len(label) for label, _ in rows), default=0)
    lines = [title, "=" * max(len(title), 1)] if title else []
    for label, fractions in rows:
        bar = stacked_bar(fractions, width)
        total = sum(fractions)
        lines.append(f"{label.rjust(label_w)} |{bar.ljust(width)}| "
                     f"{total:.2f}")
    legend = "  ".join(f"{STACK_CHARS[i % len(STACK_CHARS)]}={cat}"
                       for i, cat in enumerate(categories))
    lines.append(" " * label_w + "  " + legend)
    return "\n".join(lines)


def fig5_chart(cycles_per_barrier: Mapping[str, Mapping[int, float]]
               ) -> str:
    """Figure 5 as an ASCII log-scale chart."""
    return log_chart(
        {impl.upper(): dict(series)
         for impl, series in cycles_per_barrier.items()},
        title="Figure 5 (log scale): avg cycles per barrier vs cores")


def fig6_chart(comparisons) -> str:
    """Figure 6 as stacked bars (one DSW + one GL bar per benchmark)."""
    from .breakdown import FIG6_ORDER
    rows = []
    for name, comp in comparisons.items():
        base_total = comp.baseline.total
        for label, bd in (("DSW", comp.baseline), ("GL", comp.treated)):
            fracs = bd.normalized_to(base_total)
            rows.append((f"{name}/{label}",
                         [fracs[cat] for cat in FIG6_ORDER]))
    return stacked_bar_chart(
        rows, [c.value for c in FIG6_ORDER],
        title="Figure 6: normalized execution time (DSW total = 1.0)")


def fig7_chart(comparisons) -> str:
    """Figure 7 as stacked bars."""
    from .traffic import FIG7_ORDER
    rows = []
    for name, comp in comparisons.items():
        base_total = comp.baseline.total
        for label, tr in (("DSW", comp.baseline), ("GL", comp.treated)):
            fracs = tr.normalized_to(base_total)
            rows.append((f"{name}/{label}",
                         [fracs[cat] for cat in FIG7_ORDER]))
    return stacked_bar_chart(
        rows, [c.value for c in FIG7_ORDER],
        title="Figure 7: normalized network messages (DSW total = 1.0)")
