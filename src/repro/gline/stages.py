"""Stage gating: which stages of a G-line fabric the next tick visits.

The collective fabric (:mod:`repro.collectives.fabric`), which the
barrier network runs on too, is built of *stages*: each mesh row, and
the first column, is a master, its slaves and their wire pair.  Only a stage's own controllers drive and read its wires, so
a stage whose controllers will not act next tick, with no hand-off
pending and no wire forced this cycle, would leave a tick exactly as it
entered it.  A tick visits the other stages only.

:class:`StageGate` keeps that set for one fabric.  The fabric keeps its
stage table and a predicate saying whether one stage wants the next
tick, and marks a stage *dirty* whenever something outside the stage's
own tick changes what the predicate would say: an entry point, or a
hand-off between stages.  The gate decides the dirty stages again, and
only those, when the fabric next asks.

Wire faults are found by a scan.  With a perturbation hook (the fault
injector), every wire is read after the hook ran; without one, the
wires stuck when an entry point last looked are sampled every tick.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .gline import GLine


class StageGate:
    """The stages a fabric's next tick visits."""

    __slots__ = ("awake", "dirty", "stuck", "_lines", "_line_stage",
                 "_stages", "_wants_tick")

    def __init__(self, stage_wires: Sequence[Sequence[GLine]],
                 wants_tick: Callable[[int], bool]) -> None:
        """*stage_wires* lists each stage's wires, in stage order;
        *wants_tick(s)* says whether stage *s* acts next tick or has a
        hand-off pending."""
        #: Stages whose predicate held when they were last decided.
        self.awake: set[int] = set()
        #: Stages changed since their entry in ``awake`` was decided.
        self.dirty: set[int] = set()
        #: Stages with a wire stuck when an entry point last looked.
        self.stuck: set[int] = set()
        self._lines = [gl for wires in stage_wires for gl in wires]
        self._line_stage = [s for s, wires in enumerate(stage_wires)
                            for _ in wires]
        self._stages = range(len(stage_wires))
        self._wants_tick = wants_tick

    def settle(self) -> None:
        """Decide again, for the stages changed since, whether each is
        awake."""
        awake = self.awake
        wants_tick = self._wants_tick
        for s in self.dirty:
            if wants_tick(s):
                awake.add(s)
            else:
                awake.discard(s)
        self.dirty.clear()

    def busy(self) -> bool:
        """Does some stage want the next tick?"""
        if self.dirty:
            self.settle()
        return bool(self.awake)

    def visit(self) -> list[int]:
        """The awake stages in ascending order: those a tick asserts."""
        if self.dirty:
            self.settle()
        return sorted(self.awake)

    def sampled(self, visit: list[int], hooked: bool) -> list[int]:
        """*visit* and every stage with a wire forced this cycle, in
        ascending order: those a tick samples.  *hooked* says whether a
        perturbation hook ran this cycle."""
        forced = self.forced(hooked)
        if forced and not forced.issubset(self.awake):
            return sorted(forced.union(visit))
        return visit

    def forced(self, hooked: bool) -> set[int]:
        """Stages with a wire forced this cycle: a fault field set after
        the perturbation hook, or else a wire stuck when an entry point
        last looked."""
        if not hooked:
            return self.stuck
        return {self._line_stage[i] for i, gl in enumerate(self._lines)
                if gl.stuck is not None or gl.glitch_force is not None
                or gl.count_delta}

    def see_stuck(self) -> None:
        """An entry point looks: note the stages with a stuck wire."""
        self.stuck = {self._line_stage[i]
                      for i, gl in enumerate(self._lines)
                      if gl.stuck is not None}

    def wake_all(self) -> None:
        """A reset or restore changed state no wake mark follows: decide
        every stage again, and look for stuck wires."""
        self.dirty.update(self._stages)
        self.see_stuck()
