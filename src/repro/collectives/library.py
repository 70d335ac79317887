"""Collective libraries: the op sequences behind ``CollectiveOp``.

Two implementations share the interface:

* :class:`GLCollective` -- the hardware path: library entry overhead,
  then a col_reg write that engages a
  :class:`~repro.collectives.network.CollectiveNetwork`; the core
  sleeps until the fabric delivers the result.  When the watchdog
  quarantines a network the episode completes over the software
  fallback instead, with the same one-cohort guarantee as the barrier
  (a collective episode is never split between hardware and software).
  Without a fallback the entry overhead is folded into the arrival as
  its delay, as :class:`~repro.gline.barrier.GLBarrier` does.
* :class:`SoftwareAllReduce` -- the NoC baseline and failover target: a
  centralized sense-reversing all-reduce where every core folds its
  operand into a shared accumulator with one atomic, the last arriver
  finalizes and publishes the result, and everyone else spins on the
  release flag.  O(N) coherent traffic per episode, exactly the CSW
  cost model the paper's Figure 5 charts for barriers.
"""

from __future__ import annotations

from typing import Generator

from ..common.errors import ConfigError, GLineError
from ..cpu import isa
from ..cpu.core import HWCollectiveArrive
from ..faults import FAILOVER
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


class GLCollective(CollectiveImpl):
    """Hardware G-line collective bound to one or more network contexts."""

    name = "GL-coll"

    def __init__(self, networks, entry_overhead: int = 0,
                 fallback: SoftwareAllReduce | None = None):
        if not networks:
            raise ConfigError(
                "GLCollective needs at least one network context")
        self.networks = list(networks)
        self.entry_overhead = entry_overhead
        self.fallback = fallback
        #: Cores of the current episode already committed to software,
        #: per context (same cohort-alignment argument as GLBarrier).
        self._sw_cohort: dict[int, int] = {}

    def sequence(self, core, op: isa.CollectiveOp) -> Generator:
        if not (0 <= op.ident < len(self.networks)):
            raise ConfigError(
                f"collective context {op.ident} not provisioned "
                f"(have {len(self.networks)})")
        net = self.networks[op.ident]
        if self.fallback is None:
            outcome = yield HWCollectiveArrive(net, op.kind, op.value,
                                               self.entry_overhead)
            if outcome == FAILOVER:
                raise GLineError(
                    f"collective context {op.ident} failed over but no "
                    f"software fallback is configured")
            return outcome
        if self.entry_overhead:
            yield isa.Compute(self.entry_overhead)
        if self._sw_cohort.get(op.ident, 0) or net.quarantined:
            return (yield from self._join_software(core, op, net))
        outcome = yield HWCollectiveArrive(net, op.kind, op.value)
        if outcome == FAILOVER:
            outcome = yield from self._join_software(core, op, net)
        return outcome

    def _join_software(self, core, op: isa.CollectiveOp, net) -> Generator:
        core.stats.bump("faults.failover.sw_collectives")
        joined = self._sw_cohort.get(op.ident, 0) + 1
        self._sw_cohort[op.ident] = \
            0 if joined >= net.num_cores else joined
        return (yield from self.fallback.sequence(core, op))

    def describe(self) -> str:
        wires = self.networks[0].num_glines
        desc = (f"G-line collective engine ({len(self.networks)} "
                f"context(s), {wires} G-lines per context, entry "
                f"overhead {self.entry_overhead} cycles)")
        if self.fallback is not None:
            desc += f" with {self.fallback.name} watchdog failover"
        return desc
