"""Engine-free collective fabric: stages composed over G-line wires.

The flat fabric mirrors the barrier network's physical layout -- one
horizontal wire pair per mesh row plus one vertical pair along the first
column -- but runs the bit-serial reduction protocol of
:mod:`repro.collectives.controllers` instead of a single arrival count:

* each **row stage** reduces the row's operands (kind *k*),
* the **column stage** reduces the per-row partials with
  ``COMBINE_KIND[k]``,
* the global result is **broadcast** back down the column, then along
  every row, and each core is *delivered* exactly once when its row's
  broadcast completes.

The class owns no engine and no clock: callers (the engine-backed
:class:`~repro.collectives.network.CollectiveNetwork`, the verify-layer
model, unit tests) call :meth:`tick` whenever one network cycle elapses.
One tick = assert phase, fault-perturbation hook, release-line guard,
sample phase, then orchestration (pure state hand-offs between stages).

A tick visits only the *stages* that can change.  A stage is one row,
or the first column: a :class:`StageMaster`, its slaves and their
``tx``/``rel`` wire pair.  Only a stage's own controllers drive and
read its wires, so a stage none of whose controllers ``will_act()``,
with no orchestration hand-off pending and no wire forced this cycle
(``stuck``, ``glitch_force`` or ``count_delta``, after the perturbation
hook), would leave the tick exactly as it entered it.
Stages meet only at the orchestration hand-offs and at the entry points
(:meth:`begin`, :meth:`arrive_local`, :meth:`open_with`,
:meth:`reset_episode`, :meth:`restore`), which mark the stages they
touch; the awake set is recomputed for those stages alone.  The
bookkeeping is :class:`~repro.gline.stages.StageGate`, which the
barrier network uses too.  Wire faults reach the stages through
:attr:`perturb_hook`, inside the tick.  A ``stuck`` level written
directly on a wire is seen from the next entry point; a one-cycle fault
written directly (``glitch_force``, ``count_delta``) only on the wires
of an awake stage.

``hold_result=True`` turns the fabric into a *cluster* for the
hierarchical variant: instead of broadcasting, the global value is
parked and reported through ``on_reduced``; the upper level later calls
:meth:`open_with` to inject the chip-wide result into the local
broadcast (skipping local core 0, which the upper level delivers
itself).

The barrier kind (:data:`~repro.collectives.ops.BARRIER`) is the
G-line barrier of Figures 2 and 4, which
:class:`~repro.gline.network.GLineBarrierNetwork` runs.  It has no
episodes: :meth:`begin` configures it once, each stage starts its
gather over as it releases, and its hand-offs
(:meth:`_barrier_handoffs`) keep Figure 4's timing where it differs
from a collective's (docs/gline-network.md).
"""

from __future__ import annotations

from typing import Callable

from ..common.errors import ConfigError, GLineError
from ..gline.gline import GLine
from ..gline.integrity import INTEGRITY_MODES
from ..gline.stages import StageGate
from . import ops
from .controllers import (
    M_BC_DONE, M_BC_START, M_DONE, S_DONE, S_IDLE, S_SIGNAL, MUTATIONS,
    StageMaster, StageSlave,
)

#: Wire names of a stage role: row transmit, row release, column
#: transmit, column release.
WIRES = ("txH", "relH", "txV", "relV")
#: The barrier's, Figure 1's: fault plans, verify scenarios and traces
#: key on them.
BARRIER_WIRES = ("SglineH", "MglineH", "SglineV", "MglineV")


class CollectiveFabric:
    """One flat R x C collective reduction fabric (engine-free)."""

    def __init__(self, rows: int, cols: int, value_width: int,
                 max_transmitters: int, name: str = "coll",
                 hold_result: bool = False,
                 mutation: str | None = None,
                 integrity: str = "off",
                 integrity_budget: int = 3,
                 wires: tuple[str, str, str, str] = WIRES) -> None:
        if rows < 1 or cols < 1:
            raise ConfigError("collective fabric needs a >=1x1 mesh")
        if cols - 1 > max_transmitters or rows - 1 > max_transmitters:
            raise ConfigError(
                f"{rows}x{cols} mesh exceeds the S-CSMA fan-in limit of "
                f"{max_transmitters} transmitters per line")
        if mutation is not None and mutation not in MUTATIONS:
            raise ConfigError(f"unknown mutation {mutation!r}; "
                              f"expected one of {sorted(MUTATIONS)}")
        if integrity not in INTEGRITY_MODES:
            raise ConfigError(f"unknown integrity mode {integrity!r}; "
                              f"expected one of {INTEGRITY_MODES}")
        self.rows = rows
        self.cols = cols
        self.value_width = value_width
        self.name = name
        self.hold_result = hold_result
        self.mutation = mutation
        self.integrity = integrity
        self.integrity_budget = integrity_budget
        self.num_cores = rows * cols

        # ---- wiring (mirrors the barrier network's budget) ----------- #
        self.lines: list[GLine] = []

        def _line(suffix: str) -> GLine:
            gl = GLine(f"{name}.{suffix}", max_transmitters)
            self.lines.append(gl)
            return gl

        # Mutation placement: one deliberately buggy controller, sited
        # where the bug is expressible on this mesh (verify picks meshes
        # accordingly).
        m_master = mutation if mutation in ("master-skip-own",
                                            "skip-echo-compare") else None
        m_bcast = mutation if mutation == "bcast-drop-msb" else None
        m_slave = mutation if mutation == "slave-double-pulse" else None

        self.rmasters: list[StageMaster] = []
        self.rslaves: list[list[StageSlave]] = []
        #: One entry per stage -- every row, then the column: its master,
        #: its slaves, their transmitter ids and its wires.
        self._stages: list[tuple[StageMaster, list[StageSlave], list[str],
                                 list[GLine]]] = []
        tx_h, rel_h, tx_v, rel_v = wires
        for r in range(rows):
            if cols > 1:
                tx: GLine | None = _line(f"{tx_h}{r}")
                rel: GLine | None = _line(f"{rel_h}{r}")
            else:
                tx = rel = None
            mut = m_master if r == 0 else None
            if r == 0 and m_bcast is not None and cols > 1:
                mut = m_bcast
            self.rmasters.append(
                StageMaster(tx, rel, f"{name}.m{r}", mutation=mut))
            row_s: list[StageSlave] = []
            row_t: list[str] = []
            for c in range(1, cols):
                tid = f"{name}.s{r}_{c}"
                smut = m_slave if (r == 0 and c == 1) else None
                assert tx is not None and rel is not None
                row_s.append(StageSlave(tx, rel, tid, mutation=smut))
                row_t.append(tid)
            self.rslaves.append(row_s)
            wires = [] if tx is None or rel is None else [tx, rel]
            self._stages.append((self.rmasters[r], row_s, row_t, wires))

        self.colmaster: StageMaster | None = None
        self.colslaves: list[StageSlave] = []
        if rows > 1:
            txv = _line(tx_v)
            relv = _line(rel_v)
            cmut = m_bcast if (m_bcast is not None and cols == 1) else None
            self.colmaster = StageMaster(txv, relv, f"{name}.cm",
                                         mutation=cmut)
            col_t: list[str] = []
            for r in range(1, rows):
                tid = f"{name}.cs{r}"
                smut = m_slave if (cols == 1 and r == 1) else None
                self.colslaves.append(
                    StageSlave(txv, relv, tid, mutation=smut))
                col_t.append(tid)
            self._stages.append((self.colmaster, self.colslaves, col_t,
                                 [txv, relv]))

        # ---- hooks --------------------------------------------------- #
        #: Called between assert and sample with (lines,) -- the network
        #: points this at ``injector.perturb_glines``.
        self.perturb_hook: Callable[[list[GLine]], None] | None = None
        #: Hardened mode: mask + flag spurious release-line levels.
        self.guard = False
        #: Whether this tick's guard masked a level.
        self.spurious = False
        #: Called post-sample / pre-end_cycle with the wires of the stages
        #: the tick visited (no other wire carries a level) -- the network
        #: hangs wire tracing and toggle accounting here.
        self.wire_probe: Callable[[list[GLine]], None] | None = None
        #: Cluster mode: called once with the stage-global result.
        self.on_reduced: Callable[[int], None] | None = None

        # ---- episode state ------------------------------------------- #
        self.kind: str | None = None
        self._row_fed = [False] * rows
        self._col_done = False
        self._global_ready = False
        self.result: int | None = None
        self._bc_started = False
        self._skip_root = False
        self._delivered = [False] * self.num_cores
        self._row_w = 1       # row stage result width
        self._bw = 1          # broadcast framing width
        #: The barrier kind: a held cluster's gate is open; a single
        #: row took its count-stability tick.
        self.gate_open = False
        self._validated = False

        # ---- wake bookkeeping (derived state, not part of snapshot()) - #
        #: Stages the next tick visits: some controller will act, or an
        #: orchestration hand-off is pending.
        self._stage_gate = StageGate(
            [wires for _, _, _, wires in self._stages], self._wants_tick)
        #: Masters that drove ``rel`` on the last tick; the next tick
        #: clears ``drove_rel`` even if it skips them.
        self._drove: list[StageMaster] = []
        #: Integrity activity not yet collected: detections, round
        #: retries, corrections; and whether any stage is exhausted.
        self._int_new = [0, 0, 0]
        self._int_exhausted = False

    # ------------------------------------------------------------------ #
    # episode control
    # ------------------------------------------------------------------ #
    def begin(self, kind: str, bcast_width: int | None = None) -> None:
        """Configure every controller for one *kind* episode.

        *bcast_width* overrides the broadcast framing width -- the
        hierarchical variant passes the chip-global result width, which
        can exceed this cluster's own.  The barrier kind has no rounds
        and no data bits; ``guard`` hardens its gather.
        """
        if kind != ops.BARRIER:
            ops.check_kind(kind)
        if self.kind is not None:
            raise GLineError(
                f"{self.name}: begin({kind!r}) during an open "
                f"{self.kind!r} episode")
        self.kind = kind
        if kind == ops.BARRIER:
            for m, slaves in zip(self.rmasters, self.rslaves):
                m.configure(kind, 0, 0, 0, (None, 1), self.cols - 1,
                            hardened=self.guard)
                for s in slaves:
                    s.configure(kind, 0, 0, 0)
            if self.colmaster is not None:
                self.colmaster.configure(kind, 0, 0, 0, (None, 1),
                                         self.rows - 1,
                                         hardened=self.guard, column=True)
                for s in self.colslaves:
                    s.configure(kind, 0, 0, 0)
            self.see_stuck()
            return
        w = self.value_width
        mech = ops.MECHANISM[kind]
        in_w = ops.stage_in_width(kind, w)
        strong = 0 if kind == "min" else 1
        self._row_w = ops.stage_result_width(kind, in_w, self.cols)
        k2 = ops.COMBINE_KIND[kind]
        bw = bcast_width if bcast_width is not None \
            else ops.result_width(kind, w, self.rows, self.cols)
        self._bw = bw
        fin_row = (kind if kind in ("any", "all") else None, self.cols)
        # Broadcast stages carry no counted rounds (release-line levels
        # are immune to S-CSMA miscounts), so integrity adds nothing.
        integ = self.integrity if mech != "bcast" else "off"
        for r in range(self.rows):
            self.rmasters[r].configure(mech, in_w, strong, bw, fin_row,
                                       self.cols - 1, integ,
                                       self.integrity_budget)
            for s in self.rslaves[r]:
                s.configure(mech, in_w, strong, bw, integ)
        if self.colmaster is not None:
            mech2 = ops.MECHANISM[k2]
            in_w2 = ops.stage_in_width(k2, self._row_w)
            strong2 = 0 if k2 == "min" else 1
            fin_col = (k2 if k2 in ("any", "all") else None, self.rows)
            integ2 = self.integrity if mech2 != "bcast" else "off"
            self.colmaster.configure(mech2, in_w2, strong2, bw, fin_col,
                                     self.rows - 1, integ2,
                                     self.integrity_budget)
            for s in self.colslaves:
                s.configure(mech2, in_w2, strong2, bw, integ2)
        self._stage_gate.see_stuck()

    def arrive_local(self, local: int, value: int) -> None:
        """Present core *local*'s operand to its row stage (a barrier
        arrival carries none)."""
        kind = self.kind
        if kind is None:
            raise GLineError(f"{self.name}: arrive_local before begin()")
        if not 0 <= local < self.num_cores:
            raise ConfigError(f"{self.name}: local id {local} out of "
                              f"range for {self.rows}x{self.cols}")
        contrib = (1 if kind == ops.BARRIER
                   else ops.stage_contrib(kind, value, self.value_width))
        r, c = divmod(local, self.cols)
        if c == 0:
            self.rmasters[r].set_own(contrib)
        else:
            self.rslaves[r][c - 1].set_input(contrib)
        self._stage_gate.dirty.add(r)

    def open_with(self, value: int) -> None:
        """Cluster hand-off: broadcast the chip-global *value* locally.

        Local core 0 (the cluster root) is *not* delivered -- the upper
        level that produced *value* resumes it directly.
        """
        if not self.hold_result or not self._global_ready:
            raise GLineError(
                f"{self.name}: open_with() without a parked result")
        self._skip_root = True
        self._start_broadcast(value)

    def open_gate(self) -> None:
        """Barrier cluster hand-off: the upper level grants the release.
        Unlike :meth:`open_with` it releases local core 0 too."""
        self.gate_open = True
        self._stage_gate.wake_all()
        top = self.colmaster or self.rmasters[0]
        if top.state == M_DONE:
            top.state = M_BC_START

    def see_stuck(self) -> None:
        """An entry point looks at the wires: a stuck one is sampled
        from the next tick on."""
        self._stage_gate.see_stuck()

    def end_barrier(self) -> None:
        """A barrier episode is over: the gate closes and a single row
        owes its count-stability tick again."""
        self.gate_open = False
        self._validated = False

    def reset_episode(self, keep_operands: bool = True) -> None:
        """Watchdog retry: restart the episode's wire protocol.

        With *keep_operands* the already-latched row inputs re-signal;
        column-stage state is always rebuilt from the rows.  The barrier
        kind stays configured either way.
        """
        for r in range(self.rows):
            if keep_operands:
                self.rmasters[r].resignal()
                for s in self.rslaves[r]:
                    s.resignal()
            else:
                self.rmasters[r].reset()
                for s in self.rslaves[r]:
                    s.reset()
        if self.colmaster is not None:
            self.colmaster.reset()
            for s in self.colslaves:
                s.reset()
        self._row_fed = [False] * self.rows
        self._col_done = False
        self._global_ready = False
        self.result = None
        self._bc_started = False
        self._delivered = [False] * self.num_cores
        self._validated = False
        if not keep_operands:
            if self.kind != ops.BARRIER:
                self.kind = None
            self._skip_root = False
            self.gate_open = False
        for gl in self.lines:
            gl.end_cycle()
        self._int_new = [0, 0, 0]
        self._int_exhausted = False
        self._stage_gate.wake_all()

    def close_episode(self) -> None:
        """Finish the episode: full reset, ready for the next begin()."""
        self.reset_episode(keep_operands=False)

    # ------------------------------------------------------------------ #
    # the clock
    # ------------------------------------------------------------------ #
    def tick(self, every_stage: bool = False) -> list[tuple[int, int]]:
        """Advance one network cycle; returns newly delivered
        ``(local, value)`` pairs.  *every_stage* visits the sleeping
        stages too: a hardened barrier that found a fault while no core
        waited looks again for the overcount its masters still hold."""
        stages = self._stages
        gate = self._stage_gate
        for m in self._drove:
            m.drove_rel = False
        visit = gate.visit()
        if every_stage:
            visit = list(range(len(stages)))
        out: list[tuple[int, int]] = []

        # Assert phase.
        drove = []
        for s in visit:
            master, slaves, tids, _ = stages[s]
            if master.assert_phase():
                self._release(s, out)
            if master.drove_rel:
                drove.append(master)
            for sl, tid in zip(slaves, tids):
                sl.assert_phase(tid)
        self._drove = drove

        # Fault injection lands between assert and sample, like the
        # barrier network's tick.  A stage with a forced wire samples
        # this cycle even if none of its controllers acts.
        if self.perturb_hook is not None:
            self.perturb_hook(self.lines)
        visit = gate.sampled(visit, self.perturb_hook is not None)
        if self.guard:
            self.spurious = self._guard_release_lines(visit)

        # Sample phase.
        counting = self.integrity != "off"
        if counting:
            before = self._int_counts(visit)
        wires: list[GLine] = []
        #: (stage, controller) of each controller done this tick.
        done: list[tuple[int, StageMaster | StageSlave]] = []
        for s in visit:
            master, slaves, _, lines = stages[s]
            if master.sample_phase():
                done.append((s, master))
            for sl in slaves:
                if sl.sample_phase():
                    done.append((s, sl))
            wires += lines
        if counting:
            after = self._int_counts(visit)
            new = self._int_new
            for i in range(3):
                new[i] += after[i] - before[i]
            self._int_exhausted |= after[3]
        if self.wire_probe is not None:
            self.wire_probe(wires)
        for gl in wires:
            gl.end_cycle()
        gate.dirty.update(visit)
        if self.kind == ops.BARRIER:
            self._barrier_handoffs(done, out)
            return out
        return self._orchestrate(visit)

    def _int_counts(self, visit: list[int]) -> tuple[int, int, int, bool]:
        """Detections, round retries and corrections summed over the
        masters of *visit*, and whether one of them is exhausted."""
        faults = retries = corrected = 0
        exhausted = False
        for s in visit:
            m = self._stages[s][0]
            faults += m.int_faults
            retries += m.int_retries
            corrected += m.int_corrected
            exhausted |= m.int_exhausted
        return faults, retries, corrected, exhausted

    def _guard_release_lines(self, visit: list[int]) -> bool:
        """Hardened mode: a release-line level the master did not drive
        is a wire fault -- flag it and mask it before the slaves sample,
        so a stuck-high wire degrades to detection + failover rather
        than a silently wrong value.  A stage outside *visit* neither
        drives its release line nor has it forced.  True if a level
        was masked."""
        masked = False
        for s in visit:
            m = self._stages[s][0]
            if m.rel is not None and not m.drove_rel and m.rel.sampled_on():
                m.fault_suspected = True
                m.rel.glitch_force = 0
                masked = True
        return masked

    # ------------------------------------------------------------------ #
    # orchestration: pure state hand-offs between stages
    # ------------------------------------------------------------------ #
    def _orchestrate(self, visit: list[int]) -> list[tuple[int, int]]:
        """The hand-offs of the stages in *visit* (the only ones the
        tick changed); the stages a hand-off touches turn dirty."""
        assert self.kind is not None or not any(
            not m.idle for m in self.rmasters), "ticking a closed episode"
        rows = self.rows
        dirty = self._stage_gate.dirty

        # Row stage done -> feed the column stage.
        for r in visit:
            if r == rows:
                continue
            m = self.rmasters[r]
            if m.state == M_DONE and not self._row_fed[r]:
                self._row_fed[r] = True
                if rows == 1:
                    self._global_done(m.result)
                else:
                    assert self.kind is not None
                    contrib = ops.stage_contrib(
                        ops.COMBINE_KIND[self.kind], m.result, self._row_w)
                    if r == 0:
                        assert self.colmaster is not None
                        self.colmaster.set_own(contrib)
                    else:
                        self.colslaves[r - 1].set_input(contrib)
                    dirty.add(rows)

        # Column stage done -> the global result exists.
        if self.colmaster is not None \
                and self.colmaster.state == M_DONE and not self._col_done:
            self._col_done = True
            self._global_done(self.colmaster.result)

        # Column broadcast landed at a row master -> start its row
        # broadcast with the latched value.
        if self._bc_started:
            if rows in dirty:
                landed = list(range(1, rows))
            else:
                landed = [r for r in dirty if r]
            for r in landed:
                cs = self.colslaves[r - 1]
                rm = self.rmasters[r]
                if cs.state == S_DONE and rm.state == M_DONE:
                    rm.start_broadcast(cs.result)
                    dirty.add(r)

        # Broadcast landed -> deliver each core exactly once.  A master
        # is done when it has driven its last data bit; a slave when it
        # has latched bw bits.  In a clean episode both happen in the
        # same tick, so the whole row releases together; under a fault
        # the unaffected cores still make progress.
        out: list[tuple[int, int]] = []
        delivered = self._delivered
        for r in sorted(dirty):
            if r == rows:
                continue
            base = r * self.cols
            rm = self.rmasters[r]
            if rm.state == M_BC_DONE and not delivered[base] \
                    and not (r == 0 and self._skip_root):
                delivered[base] = True
                out.append((base, rm.bc_value))
            for c, s in enumerate(self.rslaves[r], start=1):
                if s.state == S_DONE and not delivered[base + c]:
                    delivered[base + c] = True
                    out.append((base + c, s.result))
        return out

    def _release(self, s: int, out: list[tuple[int, int]]) -> None:
        """Stage *s*'s master sent the barrier's release pulse: its
        gather starts over.  The column's hands row 0 its release for
        the next tick; a row's releases the master's own core and resets
        the column controller the row fed."""
        dirty = self._stage_gate.dirty
        rows = self.rows
        cm = self.colmaster
        if s == rows:
            assert cm is not None
            cm.regather(cm.own)
            self.rmasters[0].state = M_BC_START
            dirty.add(0)
            return
        self.rmasters[s].regather()
        out.append((s * self.cols, 0))
        if cm is not None:
            if s:
                self.colslaves[s - 1].state = S_IDLE
            else:
                cm.regather()
            dirty.add(rows)

    def _barrier_handoffs(self,
                          done: list[tuple[int, StageMaster | StageSlave]],
                          out: list[tuple[int, int]]) -> None:
        """The barrier's hand-offs for the *done* ``(stage, controller)``
        pairs of a tick: a row slave that saw its release is delivered;
        a complete row reports to the column (row 0 by the flag the
        column master reads next tick); a column slave that saw the
        column's release starts its row's; the top stage, complete,
        reports to a held cluster's upper level and releases once the
        gate allows."""
        rows = self.rows
        cm = self.colmaster
        dirty = self._stage_gate.dirty
        for s, ctrl in done:
            if isinstance(ctrl, StageSlave):
                if s == rows:
                    r = self.colslaves.index(ctrl) + 1
                    self.rmasters[r].state = M_BC_START
                    dirty.add(r)
                else:
                    ctrl.state = S_IDLE
                    out.append((s * self.cols + 1
                                + self.rslaves[s].index(ctrl), 0))
            elif s == rows:
                if self.hold_result:
                    self._report()
                if not self.hold_result or self.gate_open:
                    ctrl.state = M_BC_START
            elif cm is not None:
                if s:
                    self.colslaves[s - 1].set_input(1)
                else:
                    cm.own = 1
                dirty.add(rows)
        if cm is None:
            m = self.rmasters[0]
            if m.state != M_DONE or m.fault_suspected:
                return
            if self.hold_result and not self.gate_open:
                self._report()
            elif self.guard and not self._validated:
                self._validated = True
            else:
                m.state = M_BC_START
                dirty.add(0)

    def _report(self) -> None:
        if self.on_reduced is not None:
            self.on_reduced(1)

    def _global_done(self, result: int) -> None:
        self._global_ready = True
        self.result = result
        if self.hold_result:
            # An exhausted integrity budget means the parked partial is
            # suspect: never report it upward -- the network escalates
            # this same tick (retry or failover) before the upper level
            # could combine a corrupt partial.
            if self.on_reduced is not None and not self.int_exhausted:
                self.on_reduced(result)
            return
        self._start_broadcast(result)

    def _start_broadcast(self, value: int) -> None:
        self._bc_started = True
        dirty = self._stage_gate.dirty
        if self.colmaster is not None:
            self.colmaster.start_broadcast(value)
            dirty.add(self.rows)
        self.rmasters[0].start_broadcast(value)
        dirty.add(0)
        # Rows > 0 start when the column broadcast reaches them (or now,
        # if it already has -- e.g. open_with after the column settled).
        for j, cs in enumerate(self.colslaves):
            if cs.state == S_DONE and self.rmasters[j + 1].state == M_DONE:
                self.rmasters[j + 1].start_broadcast(cs.result)
                dirty.add(j + 1)

    # ------------------------------------------------------------------ #
    # status
    # ------------------------------------------------------------------ #
    def collect_fault(self) -> bool:
        """Read-and-clear this tick's fault suspicions (network hook)."""
        found = False
        for m in self.rmasters:
            found |= m.fault_suspected
            m.fault_suspected = False
        if self.colmaster is not None:
            found |= self.colmaster.fault_suspected
            self.colmaster.fault_suspected = False
        return found

    # ------------------------------------------------------------------ #
    # integrity status (see repro.gline.integrity)
    # ------------------------------------------------------------------ #
    def _all_masters(self) -> list[StageMaster]:
        masters = list(self.rmasters)
        if self.colmaster is not None:
            masters.append(self.colmaster)
        return masters

    @property
    def int_exhausted(self) -> bool:
        """A stage burned its whole round-retry budget this episode."""
        return self._int_exhausted

    @property
    def int_flagged(self) -> bool:
        """Any corruption detected this episode (retried or not).  The
        detection-completeness property in the verify layer is exactly
        'no wrong value is ever delivered while this is False'."""
        return any(m.int_faults > 0 or m.int_exhausted
                   for m in self._all_masters())

    def collect_integrity(self) -> tuple[int, int, int, bool]:
        """Read-and-clear the episode's new integrity activity: returns
        ``(detections, round_retries, corrections, exhausted)`` deltas
        since the previous collect (exhaustion is a level, not a delta).
        Only a stage's sample phase changes them, so each tick adds up
        the masters it visited."""
        faults, retries, corrected = self._int_new
        self._int_new = [0, 0, 0]
        return faults, retries, corrected, self._int_exhausted

    @property
    def done(self) -> bool:
        """Every core delivered (or parked, for a held cluster)."""
        if self.hold_result and not self._bc_started:
            return self._global_ready
        return all(d for i, d in enumerate(self._delivered)
                   if not (i == 0 and self._skip_root))

    def will_act(self) -> bool:
        """Does the next tick change fabric state unprompted?  Mirrors
        the barrier network's power gating: False while merely waiting
        for arrivals (or parked on a held result)."""
        return self._stage_gate.busy()

    def _wants_tick(self, s: int) -> bool:
        """Will stage *s* act next tick, or does it have an orchestration
        hand-off pending?"""
        master, slaves, _, _ = self._stages[s]
        if master.will_act():
            return True
        if self.kind == ops.BARRIER:
            for sl in slaves:
                if sl.state == S_SIGNAL:  # its arrival pulse is due
                    return True
            # A hardened single row also wakes for its count-stability
            # tick, once its gate allows the release.
            return (self.guard and self.rows == 1 and master.state == M_DONE
                    and (not self.hold_result or self.gate_open))
        if s == self.rows:  # the column
            if master.state == M_DONE and not self._col_done:
                return True
            return any(sl.will_act() for sl in slaves)
        delivered = self._delivered
        base = s * self.cols
        if master.state == M_DONE:
            if not self._row_fed[s]:
                return True
            if s and self._bc_started \
                    and self.colslaves[s - 1].state == S_DONE:
                return True
        elif master.state == M_BC_DONE and not delivered[base] \
                and not (s == 0 and self._skip_root):
            return True
        for c, sl in enumerate(slaves, start=base + 1):
            if sl.will_act() or (sl.state == S_DONE and not delivered[c]):
                return True
        return False

    @property
    def idle(self) -> bool:
        return self.kind is None

    # ------------------------------------------------------------------ #
    # model-checker support
    # ------------------------------------------------------------------ #
    def snapshot(self) -> tuple:
        return (
            tuple(m.snapshot() for m in self.rmasters),
            tuple(tuple(s.snapshot() for s in row) for row in self.rslaves),
            self.colmaster.snapshot() if self.colmaster else None,
            tuple(s.snapshot() for s in self.colslaves),
            self.kind, tuple(self._row_fed), self._col_done,
            self._global_ready, self.result, self._bc_started,
            self._skip_root, tuple(self._delivered),
            self._row_w, self._bw,
            tuple(gl.stuck for gl in self.lines),
            self.gate_open, self._validated,
        )

    def restore(self, snap: tuple, held: tuple | None = None) -> None:
        """Put the fabric back in state *snap*.  *held*, if given, is
        the snapshot the fabric is in now: only the controllers whose
        part of *snap* differs from it are restored.  The wires and the
        derived wake and integrity fields are reset either way."""
        (rm, rs, cm, cs, kind, row_fed, col_done, global_ready, result,
         bc_started, skip_root, delivered, row_w, bw, stuck,
         self.gate_open, self._validated) = snap
        old_rm, old_rs, old_cm, old_cs = (
            held[:4] if held is not None else (None, None, None, None))
        _restore_changed(self.rmasters, rm, old_rm)
        for i, row in enumerate(self.rslaves):
            _restore_changed(row, rs[i], old_rs and old_rs[i])
        if self.colmaster is not None and (held is None or cm != old_cm):
            self.colmaster.restore(cm)
        _restore_changed(self.colslaves, cs, old_cs)
        self.kind = kind
        self._row_fed = list(row_fed)
        self._col_done = col_done
        self._global_ready = global_ready
        self.result = result
        self._bc_started = bc_started
        self._skip_root = skip_root
        self._delivered = list(delivered)
        self._row_w = row_w
        self._bw = bw
        for gl, st in zip(self.lines, stuck):
            gl.stuck = st
            gl._asserting.clear()
            gl.glitch_force = None
            gl.count_delta = 0
        masters = self._all_masters()
        self._drove = [m for m in masters if m.drove_rel]
        self._int_new = [0, 0, 0]
        self._int_exhausted = any(m.int_exhausted for m in masters)
        self._stage_gate.wake_all()


def _restore_changed(ctrls: list[StageMaster] | list[StageSlave],
                     snaps: tuple, held: tuple | None) -> None:
    """Restore each controller of *ctrls* from *snaps*, or, given the
    *held* snapshots they are in now, only those that differ."""
    if held is None:
        for ctrl, snap in zip(ctrls, snaps):
            ctrl.restore(snap)
    elif snaps != held:
        for ctrl, snap, old in zip(ctrls, snaps, held):
            if snap != old:
                ctrl.restore(snap)
