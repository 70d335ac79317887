"""Kind semantics shared by every collective layer.

One module is the single source of truth for what each collective *means*:
the hardware fabric, the software NoC fallback, the verify-layer model and
the workload self-check all call the same functions, so a divergence
between "what the wires computed" and "what the spec says" can never hide
in two copies of the arithmetic.

The G-line fabric reduces in two composable 1-D stages (rows, then the
first column), and the hierarchical variant adds a third level on top.
Each level reduces *partials* produced by the level below, which is why a
kind maps to a ``COMBINE_KIND`` for its upper levels: a ``vote`` row
produces a count, and counts are combined by *summing*, not by counting
non-zero counts.
"""

from __future__ import annotations

from typing import Sequence

from ..common.errors import ConfigError

#: Every collective kind accepted by :class:`repro.cpu.isa.CollectiveOp`.
KINDS = ("sum", "min", "max", "any", "all", "vote", "bcast")

#: The zero-round kind :class:`repro.gline.network.GLineBarrierNetwork`
#: runs on its fabric: the gather is every kind's arrival count, the
#: release the broadcast start pulse with no data bits.  No
#: ``CollectiveOp`` carries it, so it is not in :data:`KINDS`.
BARRIER = "barrier"

#: Kind used to combine a level's partials at the level above.
COMBINE_KIND = {
    "sum": "sum",
    "vote": "sum",   # votes are counts; counts add
    "any": "any",    # 1-bit partials OR together
    "all": "all",    # 1-bit partials AND together
    "min": "min",
    "max": "max",
    "bcast": "bcast",
}

#: Wire mechanism per kind: bit-serial transmitter counting, MSB-first
#: elimination, or pure broadcast.
MECHANISM = {
    "sum": "count",
    "vote": "count",
    "any": "count",
    "all": "count",
    "min": "elim",
    "max": "elim",
    "bcast": "bcast",
}


def check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ConfigError(
            f"unknown collective kind {kind!r}; expected one of {KINDS}")


def mask(width: int) -> int:
    """All-ones mask for *width*-bit values."""
    return (1 << width) - 1


def stage_in_width(kind: str, width: int) -> int:
    """Bits each participant serializes onto the wire in one stage.

    Predicate kinds collapse a *width*-bit input to its non-zero bit, so
    a whole row votes in a single counting round.
    """
    if kind in ("vote", "any", "all"):
        return 1
    return width


def stage_contrib(kind: str, value: int, width: int) -> int:
    """A participant's contribution in the stage's wire domain."""
    v = value & mask(width)
    if kind in ("vote", "any", "all"):
        return 1 if v else 0
    return v


def stage_result_width(kind: str, width: int, n: int) -> int:
    """Width of one stage's (finalized) result over *n* participants.

    Every controller computes this statically from (kind, width, n), so
    round counts never need negotiating on the wires.
    """
    if kind == "sum":
        return max(1, (n * mask(width)).bit_length())
    if kind == "vote":
        return max(1, n.bit_length())
    if kind in ("any", "all"):
        return 1
    # min / max / bcast keep the input width.
    return max(1, width)


def stage_finalize(kind: str, acc: int, n: int) -> int:
    """Turn a stage's raw accumulator into its result.

    Counting stages accumulate the number (or bit-weighted sum) of
    contributors; predicates threshold that count against *n*.
    """
    if kind == "any":
        return 1 if acc > 0 else 0
    if kind == "all":
        return 1 if acc == n else 0
    return acc


def reference_reduce(kind: str, values: Sequence[int], width: int) -> int:
    """The specification: what a collective over *values* must deliver.

    Independent of the wire protocol -- direct arithmetic over the masked
    inputs.  ``bcast`` delivers participant 0's value (the root).
    """
    check_kind(kind)
    m = mask(width)
    vs = [v & m for v in values]
    if not vs:
        raise ConfigError("reference_reduce needs at least one value")
    if kind == "sum":
        return sum(vs)
    if kind == "min":
        return min(vs)
    if kind == "max":
        return max(vs)
    if kind == "any":
        return 1 if any(vs) else 0
    if kind == "all":
        return 1 if all(vs) else 0
    if kind == "vote":
        return sum(1 for v in vs if v)
    return vs[0]  # bcast


def result_width(kind: str, width: int, rows: int, cols: int) -> int:
    """Broadcast width of the flat fabric's final result on R x C.

    Composition of the row stage (kind over *cols* inputs of ``width``
    bits) and the column stage (``COMBINE_KIND[kind]`` over *rows* row
    results).  Slightly conservative for ``sum`` (the column stage sizes
    for ``rows`` maximal row partials), which costs at most one spare
    broadcast round -- every participant derives the same number, which
    is all the framing needs.
    """
    check_kind(kind)
    wr = stage_result_width(kind, stage_in_width(kind, width), cols)
    if rows == 1:
        return wr
    k2 = COMBINE_KIND[kind]
    return stage_result_width(k2, stage_in_width(k2, wr), rows)


def sw_fold(kind: str, acc: int, value: int, width: int) -> int:
    """Fold one contribution into the software accumulator.

    The encoding is chosen so that **0 is the identity for every kind**
    -- the shared accumulator line can then be reset to 0 between
    episodes without knowing the next episode's kind, and no seeding
    store can race a concurrent fold: ``min`` folds as a complement-max,
    ``all`` counts zero-votes (decoded by :func:`sw_final`).
    """
    m = mask(width)
    v = value & m
    if kind == "sum":
        return acc + v
    if kind == "vote":
        return acc + (1 if v else 0)
    if kind == "min":
        return max(acc, m ^ v)
    if kind == "max":
        return max(acc, v)
    if kind == "any":
        return acc | (1 if v else 0)
    if kind == "all":
        return acc + (1 if v == 0 else 0)
    return acc  # bcast: the root stores directly


def sw_final(kind: str, acc: int, width: int) -> int:
    """Decode the software accumulator into the collective's result."""
    if kind == "min":
        return mask(width) ^ acc
    if kind == "all":
        return 1 if acc == 0 else 0
    return acc
