"""Collective libraries: the op sequences behind ``CollectiveOp``.

Two implementations share the interface:

* :class:`GLCollective` -- the hardware path: library entry overhead,
  then a col_reg write that engages a
  :class:`~repro.collectives.network.CollectiveNetwork`; the core
  sleeps until the fabric delivers the result.  When the watchdog
  quarantines a network the episode completes over the software
  fallback instead, with the same one-cohort guarantee as the barrier
  (a collective episode is never split between hardware and software).
  It is the barrier's :class:`~repro.gline.barrier.GLineLibrary`, which
  also folds the entry overhead into the arrival as its delay when
  there is no fallback.
* :class:`SoftwareAllReduce` -- the NoC baseline and failover target: a
  centralized sense-reversing all-reduce where every core folds its
  operand into a shared accumulator with one atomic, the last arriver
  finalizes and publishes the result, and everyone else spins on the
  release flag.  O(N) coherent traffic per episode, exactly the CSW
  cost model the paper's Figure 5 charts for barriers.
"""

from __future__ import annotations

from typing import Generator

from ..common.errors import ConfigError
from ..cpu import isa
from ..gline.barrier import GLineLibrary
from ..mem.address import Allocator
from . import ops


class CollectiveImpl:
    """Abstract collective bound to a chip (mirrors BarrierImpl)."""

    name: str = "abstract"

    def sequence(self, core, op: isa.CollectiveOp) -> Generator:
        """Op-generator executing one collective episode for *core*;
        its return value is the collective's result on this core."""
        raise NotImplementedError

    def describe(self) -> str:
        return self.name


class SoftwareAllReduce(CollectiveImpl):
    """Centralized sense-reversing all-reduce over coherent memory."""

    name = "SW-coll"

    def __init__(self, allocator: Allocator, num_cores: int,
                 num_contexts: int = 1, value_width: int = 8,
                 root: int = 0):
        self.num_cores = num_cores
        self.value_width = value_width
        self.root = root
        self.contexts = []
        for _ in range(max(1, num_contexts)):
            self.contexts.append({
                "acc": allocator.alloc_line(home=0),
                "counter": allocator.alloc_line(home=0),
                "flag": allocator.alloc_line(home=0),
                "result": allocator.alloc_line(home=0),
            })

    def sequence(self, core, op: isa.CollectiveOp) -> Generator:
        if not (0 <= op.ident < len(self.contexts)):
            raise ConfigError(
                f"collective context {op.ident} not provisioned "
                f"(have {len(self.contexts)})")
        ops.check_kind(op.kind)
        ctx = self.contexts[op.ident]
        kind, w = op.kind, self.value_width
        key = ("coll_sense", op.ident)
        sense = 1 - core.local.get(key, 0)
        core.local[key] = sense

        # Fold the operand in, then announce arrival.  The fold strictly
        # precedes the counter increment, so the last arriver's read of
        # the accumulator observes every contribution; the next episode
        # cannot start folding before this one's release flag flips.
        # ``sw_fold``'s encoding makes 0 the identity for every kind,
        # so the zeroed (or episode-reset) accumulator needs no seeding.
        if kind == "bcast":
            if core.cid == self.root:
                yield isa.Store(ctx["acc"], op.value & ops.mask(w))
        else:
            yield isa.AtomicRMW(
                ctx["acc"],
                lambda old, k=kind, v=op.value, _w=w:
                    ops.sw_fold(k, old, v, _w))
        count = (yield isa.FetchAdd(ctx["counter"], 1)) + 1
        if count == self.num_cores:
            acc = yield isa.Load(ctx["acc"])
            result = ops.sw_final(kind, acc, w)
            yield isa.Store(ctx["result"], result)
            # Reset for the next episode *before* the release: a released
            # core may immediately re-enter, and its fold must land on a
            # fresh identity accumulator.
            yield isa.Store(ctx["acc"], 0)
            yield isa.Store(ctx["counter"], 0)
            yield isa.Store(ctx["flag"], sense)
            return result
        yield isa.SpinUntil(ctx["flag"], lambda v, s=sense: v == s)
        return (yield isa.Load(ctx["result"]))

    def describe(self) -> str:
        return (f"centralized sense-reversing software all-reduce "
                f"({self.num_cores} cores, "
                f"{len(self.contexts)} context(s))")


class GLCollective(GLineLibrary, CollectiveImpl):
    """Hardware G-line collective bound to one or more network contexts."""

    name = "GL-coll"
    word = "collective"
    title = "G-line collective engine"
    sw_counter = "faults.failover.sw_collectives"

    def sequence(self, core, op: isa.CollectiveOp) -> Generator:
        # col_reg carries (kind, value); the fallback all-reduces the
        # same op in software.
        return self._episode(core, op.ident, (op.kind, op.value), op)
