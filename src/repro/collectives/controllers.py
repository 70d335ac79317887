"""Master/slave controller FSMs for one bit-serial reduction stage.

A *stage* reduces over one shared wire pair -- ``tx`` (slaves -> master,
S-CSMA counted) and ``rel`` (master -> slaves) -- and is instantiated
once per mesh row plus once for the first column, mirroring the barrier
network's wiring.  The protocol per stage:

1. **Gather**: each slave pulses ``tx`` once when its operand is ready;
   the master accumulates the S-CSMA count until every slave (and its
   own operand) is present.
2. **Start pulse**: the master pulses ``rel`` for one tick; rounds run
   in lockstep from the next tick.
3. **Rounds** -- per mechanism (:data:`repro.collectives.ops.MECHANISM`):

   * ``count``: round *b* has every slave assert ``tx`` iff bit *b* of
     its contribution is set; the master adds ``count << b``.  With the
     predicate kinds' 1-bit contributions this degenerates to a single
     voting round.
   * ``elim``: MSB-first elimination, two ticks per bit.  Transmit tick:
     every still-competing slave asserts iff its current bit equals the
     *strong* bit (0 for MIN, 1 for MAX).  Reflect tick: the master
     drives the winning bit back on ``rel``; slaves whose bit lost drop
     out.
   * ``bcast``: no rounds -- the master's own operand is the result.

4. **Broadcast**: a start bit then ``bw`` data bits on ``rel`` (LSB
   first), so slaves can distinguish a result of 0 from silence.

The ``barrier`` mechanism (:data:`repro.collectives.ops.BARRIER`) is
Figure 4's: a gather completed by an exact count (:meth:`StageMaster.
_barrier_sample`), then a start bit with no data bits as the release.

Controllers are *pure state machines*: they never touch the engine, so
the verify layer drives the exact production FSMs under exhaustive
arrival interleavings (``repro.verify.collectives``) while
:class:`~repro.collectives.network.CollectiveNetwork` clocks the same
objects inside the simulator.  ``snapshot``/``restore`` exist for that
model checker.

``mutation`` plants a named bug for the checker to catch (see
:data:`MUTATIONS`); production builders never set it.
"""

from __future__ import annotations

from ..gline.gline import GLine
from ..gline.integrity import (RESIDUE_BITS, RESIDUE_MOD,
                               SAMPLES_PER_ROUND, majority, residue_of)

# Slave states.
S_IDLE = 0        # no operand yet
S_SIGNAL = 1      # operand latched; arrival pulse pending
S_WAIT_START = 2  # waiting for the master's round-start pulse
S_ROUNDS = 3      # lockstep reduction rounds
S_WAIT_BC = 4     # waiting for the broadcast start bit
S_BC_DATA = 5     # latching broadcast data bits
S_DONE = 6        # result latched

# Master states.
M_GATHER = 0      # counting arrival pulses
M_START = 1       # round-start pulse pending
M_ROUNDS = 2      # reduction rounds
M_DONE = 3        # stage result computed (fabric orchestrates next)
M_BC_START = 4    # broadcast start bit pending
M_BC_DATA = 5     # driving broadcast data bits
M_BC_DONE = 6     # broadcast finished

#: The states in which a controller changes state next tick unprompted;
#: a master drives ``rel`` in no other.
S_ACTING = frozenset((S_SIGNAL, S_ROUNDS, S_BC_DATA))
M_ACTING = frozenset((M_START, M_ROUNDS, M_BC_START, M_BC_DATA))

#: Planted-bug registry for the verify layer (name -> description).
MUTATIONS = {
    "master-skip-own": "counting master omits its own contribution",
    "slave-double-pulse": "slave re-sends its arrival pulse, so the "
                          "master starts rounds before the row is full",
    "bcast-drop-msb": "broadcasting master never drives the final data "
                      "bit, truncating the result's MSB",
    "skip-echo-compare": "integrity master skips every verification "
                         "compare, acking corrupted rounds as clean",
}


def _elim_samples(integ: str) -> int:
    """Redundant samples per elimination transmit phase.  The residue
    code has no elimination analogue, so that mode uses the echo pair."""
    return 3 if integ == "vote" else 2


class StageSlave:
    """One slave controller of a reduction stage."""

    __slots__ = ("tx", "rel", "mechanism", "in_width", "strong_bit", "bw",
                 "state", "value", "competing", "pulses", "round",
                 "reflect", "cur_bit", "bc_idx", "result", "mutation",
                 "integ", "confirming", "iphase")

    def __init__(self, tx: GLine, rel: GLine, transmitter_id: str,
                 mutation: str | None = None) -> None:
        self.tx = tx
        self.rel = rel
        tx.attach(transmitter_id)
        self.mutation = mutation
        # Per-episode parameters (set by configure()).
        self.mechanism = "count"
        self.in_width = 1
        self.strong_bit = 0
        self.bw = 1
        self.integ = "off"
        self.reset()

    # ------------------------------------------------------------------ #
    def configure(self, mechanism: str, in_width: int, strong_bit: int,
                  bw: int, integ: str = "off") -> None:
        self.mechanism = mechanism
        self.in_width = in_width
        self.strong_bit = strong_bit
        self.bw = bw
        self.integ = integ

    def set_input(self, contrib: int) -> None:
        """Latch this participant's stage-domain contribution."""
        self.value = contrib
        self.competing = True
        self.pulses = 0
        self.state = S_SIGNAL

    def resignal(self) -> None:
        """Watchdog retry: re-announce the still-latched operand."""
        if self.state != S_IDLE:
            self.set_input(self.value)

    def reset(self) -> None:
        self.state = S_IDLE
        self.value = 0
        self.competing = False
        self.pulses = 0
        self.round = 0
        self.reflect = False
        self.cur_bit = 0
        self.bc_idx = 0
        self.result = 0
        self.confirming = False
        self.iphase = 0

    # ------------------------------------------------------------------ #
    def _round_bit(self) -> int:
        """The bit serialized in counting round ``round`` -- a data bit,
        or a residue digit bit in the appended check rounds."""
        if self.round < self.in_width:
            return (self.value >> self.round) & 1
        return (residue_of(self.value) >> (self.round - self.in_width)) & 1

    def _total_rounds(self) -> int:
        if self.mechanism == "count" and self.integ == "residue":
            return self.in_width + RESIDUE_BITS
        return self.in_width

    def assert_phase(self, tid: str) -> None:
        state = self.state
        if state == S_SIGNAL:
            self.tx.assert_signal(tid)
            self.pulses += 1
            if self.mutation == "slave-double-pulse" and self.pulses == 1:
                return  # stay in S_SIGNAL: the pulse repeats next tick
            self.state = (S_WAIT_BC if self.mechanism in ("bcast", "barrier")
                          else S_WAIT_START)
        elif state == S_ROUNDS:
            if self.integ != "off":
                self._int_assert(tid)
            elif self.mechanism == "count":
                if (self.value >> self.round) & 1:
                    self.tx.assert_signal(tid)
            elif not self.reflect and self.competing \
                    and ((self.value >> self.cur_bit) & 1) == self.strong_bit:
                self.tx.assert_signal(tid)

    def _int_assert(self, tid: str) -> None:
        """Round asserts under an integrity mode: redundant samples are
        produced by re-asserting the same decision; confirm/ACK/valid/
        reflect ticks are silent on ``tx``."""
        if self.confirming:
            if self.iphase == 0:
                self.tx.assert_signal(tid)
        elif self.mechanism == "count":
            if self.iphase < SAMPLES_PER_ROUND[self.integ] \
                    and self._round_bit():
                self.tx.assert_signal(tid)
        else:  # elim
            if self.iphase < _elim_samples(self.integ) and self.competing \
                    and ((self.value >> self.cur_bit) & 1) == self.strong_bit:
                self.tx.assert_signal(tid)

    def sample_phase(self) -> bool:
        """Observe the wires at end of tick.  True if this slave's
        result is complete (the barrier's: its release)."""
        state = self.state
        if state == S_WAIT_START:
            if self.rel.sampled_on():
                self.state = S_ROUNDS
                self.round = 0
                self.reflect = False
                self.cur_bit = self.in_width - 1
                if self.integ != "off":
                    self.confirming = True
                    self.iphase = 0
        elif state == S_ROUNDS:
            if self.integ != "off":
                self._int_sample()
            elif self.mechanism == "count":
                self.round += 1
                if self.round >= self.in_width:
                    self.state = S_WAIT_BC
            elif not self.reflect:
                self.reflect = True
            else:
                winner = 1 if self.rel.sampled_on() else 0
                if self.competing \
                        and ((self.value >> self.cur_bit) & 1) != winner:
                    self.competing = False
                self.reflect = False
                self.cur_bit -= 1
                if self.cur_bit < 0:
                    self.state = S_WAIT_BC
        elif state == S_WAIT_BC:
            if self.rel.sampled_on():
                self.bc_idx = 0
                self.result = 0
                if not self.bw:
                    self.state = S_DONE
                    return True
                self.state = S_BC_DATA
        elif state == S_BC_DATA:
            if self.rel.sampled_on():
                self.result |= 1 << self.bc_idx
            self.bc_idx += 1
            if self.bc_idx >= self.bw:
                self.state = S_DONE
                return True
        return False

    def _int_sample(self) -> None:
        """Round sampling under an integrity mode.  The master's ACK (a
        release-line pulse on the tick after the redundant samples)
        advances the round; a silent ACK tick repeats it."""
        if self.confirming:
            if self.iphase == 0:
                self.iphase = 1
            else:  # ACK tick of the confirm round
                if self.rel.sampled_on():
                    self.confirming = False
                self.iphase = 0
        elif self.mechanism == "count":
            if self.integ == "residue":
                # Residue rounds are unacknowledged single ticks; the
                # master checks the accumulated residue at the end.
                self.round += 1
                if self.round >= self._total_rounds():
                    self.state = S_WAIT_BC
            elif self.iphase < SAMPLES_PER_ROUND[self.integ]:
                self.iphase += 1
            else:  # ACK tick
                self.iphase = 0
                if self.rel.sampled_on():
                    self.round += 1
                    if self.round >= self.in_width:
                        self.state = S_WAIT_BC
        else:  # elim: transmits, then a valid tick, then the reflect
            ns = _elim_samples(self.integ)
            if self.iphase < ns:
                self.iphase += 1
            elif self.iphase == ns:  # valid tick (rel on = pair accepted)
                self.iphase = ns + 1 if self.rel.sampled_on() else 0
            else:  # reflect tick
                winner = 1 if self.rel.sampled_on() else 0
                if self.competing \
                        and ((self.value >> self.cur_bit) & 1) != winner:
                    self.competing = False
                self.cur_bit -= 1
                self.iphase = 0
                if self.cur_bit < 0:
                    self.state = S_WAIT_BC

    # ------------------------------------------------------------------ #
    def will_act(self) -> bool:
        """True if this controller changes state next tick unprompted."""
        return self.state in S_ACTING

    @property
    def idle(self) -> bool:
        return self.state == S_IDLE

    def snapshot(self) -> tuple:
        return (self.state, self.value, self.competing, self.pulses,
                self.round, self.reflect, self.cur_bit, self.bc_idx,
                self.result, self.mechanism, self.in_width,
                self.strong_bit, self.bw, self.integ, self.confirming,
                self.iphase)

    def restore(self, snap: tuple) -> None:
        (self.state, self.value, self.competing, self.pulses, self.round,
         self.reflect, self.cur_bit, self.bc_idx, self.result,
         self.mechanism, self.in_width, self.strong_bit, self.bw,
         self.integ, self.confirming, self.iphase) = snap


class StageMaster:
    """The master controller of a reduction stage.

    *n_slaves* may be 0 (single-column rows): the stage then completes
    as soon as the master's own operand is ready, with no wire activity.
    """

    __slots__ = ("tx", "rel", "rel_tid", "n_slaves", "mechanism",
                 "in_width", "strong_bit", "bw", "finalize", "state",
                 "own", "own_set", "arrived", "acc", "round", "cur_bit",
                 "own_competing", "pending_reflect", "result", "bc_value",
                 "bc_idx", "drove_rel", "fault_suspected", "mutation",
                 "integ", "int_budget", "confirming", "iphase",
                 "int_samples", "int_accept", "int_value", "int_retries",
                 "int_faults", "int_corrected", "int_exhausted", "racc",
                 "hardened", "column", "validating")

    def __init__(self, tx: GLine | None, rel: GLine | None,
                 rel_tid: str = "", mutation: str | None = None) -> None:
        self.tx = tx
        self.rel = rel
        self.rel_tid = rel_tid
        if rel is not None:
            rel.attach(rel_tid)
        self.mutation = mutation
        self.n_slaves = 0
        # Per-episode parameters (configure()).
        self.mechanism = "count"
        self.in_width = 1
        self.strong_bit = 0
        self.bw = 1
        #: Applied to the raw accumulator: ("any"|"all"|None, n).
        self.finalize: tuple[str | None, int] = (None, 1)
        self.integ = "off"
        self.int_budget = 3
        #: The barrier: an overcount is a fault; the first column's master.
        self.hardened = False
        self.column = False
        self.reset()

    # ------------------------------------------------------------------ #
    def configure(self, mechanism: str, in_width: int, strong_bit: int,
                  bw: int, finalize: tuple[str | None, int],
                  n_slaves: int, integ: str = "off",
                  int_budget: int = 3, hardened: bool = False,
                  column: bool = False) -> None:
        self.mechanism = mechanism
        self.in_width = in_width
        self.strong_bit = strong_bit
        self.bw = bw
        self.finalize = finalize
        self.n_slaves = n_slaves
        self.integ = integ
        self.int_budget = int_budget
        self.hardened = hardened
        self.column = column

    def set_own(self, contrib: int) -> None:
        """Latch the master's co-located operand (register write, not a
        wire pulse -- the master is its own receiver).  A barrier master
        reads it in its next sample phase."""
        self.own = contrib
        if self.mechanism == "barrier":
            return
        self.own_set = True
        self._maybe_complete_gather()

    def resignal(self) -> None:
        """Watchdog retry: back to gather-start with the operand kept."""
        own, own_set = self.own, self.own_set
        self.reset()
        self.own = own
        if self.mechanism == "barrier":
            return  # read again by the next sample phase
        self.own_set = own_set
        self._maybe_complete_gather()

    def regather(self, own: int = 0) -> None:
        """The barrier's release: the gather starts over, with *own*
        present but not yet read."""
        self.state = M_GATHER
        self.arrived = 0
        self.own = own
        self.own_set = False

    def reset(self) -> None:
        self.state = M_GATHER
        self.own = 0
        self.own_set = False
        self.arrived = 0
        self.acc = 0
        self.round = 0
        self.cur_bit = 0
        self.own_competing = False
        self.pending_reflect = -1
        self.result = 0
        self.bc_value = 0
        self.bc_idx = 0
        self.drove_rel = False
        self.fault_suspected = False
        self.confirming = False
        self.iphase = 0
        self.int_samples: list[int] = []
        self.int_accept = False
        self.int_value = 0
        self.int_retries = 0
        self.int_faults = 0
        self.int_corrected = 0
        self.int_exhausted = False
        self.racc = 0
        #: The barrier column's count-stability tick is under way.
        self.validating = False

    # ------------------------------------------------------------------ #
    def _maybe_complete_gather(self) -> None:
        if self.state != M_GATHER or not self.own_set \
                or self.arrived < self.n_slaves:
            return
        if self.mechanism == "bcast" or self.n_slaves == 0:
            # No rounds: the result is local arithmetic on the operand.
            self._finish(self.own)
        else:
            self.state = M_START

    def _finish(self, raw: int) -> None:
        fin, n = self.finalize
        if fin == "any":
            raw = 1 if raw > 0 else 0
        elif fin == "all":
            raw = 1 if raw == n else 0
        self.result = raw
        self.state = M_DONE

    def start_broadcast(self, value: int) -> None:
        """Fabric hand-off: push *value* down this stage's ``rel`` line."""
        self.bc_value = value
        self.bc_idx = 0
        if self.n_slaves == 0 and self.bw:
            self.state = M_BC_DONE
        else:
            self.state = M_BC_START

    # ------------------------------------------------------------------ #
    def assert_phase(self) -> bool:
        """Drive ``rel`` from start-of-tick state.  True if this was the
        barrier's release: the start bit with no data bits, which a
        stage without a release line makes too (its master releases
        its own core)."""
        self.drove_rel = False
        state = self.state
        if state not in M_ACTING:
            return False
        rel = self.rel
        if state == M_BC_START:
            if rel is not None:
                rel.assert_signal(self.rel_tid)
                self.drove_rel = True
            self.bc_idx = 0
            if self.bw:
                self.state = M_BC_DATA
                return False
            self.state = M_BC_DONE
            return True
        if rel is None:
            return False
        if state == M_START:
            # The start pulse; the sample phase arms the round state so
            # the first round is counted one tick later, in lockstep with
            # the slaves (they observe this pulse at end of tick).
            rel.assert_signal(self.rel_tid)
            self.drove_rel = True
        elif state == M_ROUNDS:
            if self.integ != "off":
                self._int_assert()
            elif self.mechanism == "elim" and self.pending_reflect == 1:
                rel.assert_signal(self.rel_tid)
                self.drove_rel = True
        elif state == M_BC_DATA:
            last = self.bc_idx == self.bw - 1
            if (self.bc_value >> self.bc_idx) & 1 \
                    and not (last and self.mutation == "bcast-drop-msb"):
                self.rel.assert_signal(self.rel_tid)
                self.drove_rel = True
            self.bc_idx += 1
            if self.bc_idx >= self.bw:
                self.state = M_BC_DONE
        return False

    def sample_phase(self) -> bool:
        """Observe the wires at end of tick.  True if a barrier gather
        completed."""
        if self.mechanism == "barrier":
            return self._barrier_sample()
        if self.state == M_GATHER:
            if self.tx is not None:
                cnt = self.tx.sample_count()
                if cnt:
                    self.arrived += cnt
                    if self.arrived > self.n_slaves:
                        self.fault_suspected = True
                        self.arrived = self.n_slaves
            self._maybe_complete_gather()
        elif self.state == M_START:
            # Pulse sent this tick; rounds are live from the next one.
            self.round = 0
            self.cur_bit = self.in_width - 1
            self.acc = 0 if self.mutation == "master-skip-own" else self.own
            self.own_competing = True
            self.pending_reflect = -1
            self.state = M_ROUNDS
            if self.integ != "off":
                self.confirming = True
                self.iphase = 0
                self.int_samples = []
                self.int_retries = 0
                self.racc = residue_of(self.acc)
            if self.mechanism == "elim":
                self.acc = 0
        elif self.state == M_ROUNDS:
            if self.integ != "off":
                self._int_sample()
            elif self.mechanism == "count":
                assert self.tx is not None
                cnt = self.tx.sample_count()
                if cnt > self.n_slaves:
                    self.fault_suspected = True
                    cnt = self.n_slaves
                self.acc += cnt << self.round
                self.round += 1
                if self.round >= self.in_width:
                    self._finish(self.acc)
            elif self.pending_reflect < 0:  # elim transmit tick
                assert self.tx is not None
                cnt = self.tx.sample_count()
                if cnt > self.n_slaves:
                    self.fault_suspected = True
                    cnt = self.n_slaves
                own_bit = (self.own >> self.cur_bit) & 1
                holders = cnt + (1 if self.own_competing
                                 and own_bit == self.strong_bit else 0)
                self.pending_reflect = (self.strong_bit if holders > 0
                                        else 1 - self.strong_bit)
            else:  # elim reflect tick
                winner = self.pending_reflect
                own_bit = (self.own >> self.cur_bit) & 1
                if self.own_competing and own_bit != winner:
                    self.own_competing = False
                self.acc |= winner << self.cur_bit
                self.pending_reflect = -1
                self.cur_bit -= 1
                if self.cur_bit < 0:
                    self._finish(self.acc)
        return False

    def _barrier_sample(self) -> bool:
        """Figure 4's gather: add this tick's ``tx`` count, read the own
        arrival, and complete when it is present and the count is
        exact.  An unhardened row stops sampling once complete, so an
        overcount never completes it.  True if it completed."""
        gathering = self.state == M_GATHER
        if not (gathering or self.hardened or self.column):
            return False
        if self.tx is not None:
            self.arrived += self.tx.sample_count()
        if self.own:
            self.own_set = True
        if self.hardened and self.arrived > self.n_slaves:
            self.fault_suspected = True
            self.validating = False
            return False
        if gathering and self.own_set and self.arrived == self.n_slaves:
            if self.hardened and self.column and not self.validating:
                self.validating = True
                return False
            self.validating = False
            self.state = M_DONE
            return True
        return False

    # ------------------------------------------------------------------ #
    # Integrity-mode round handling (see repro.gline.integrity).  The
    # protocol shape per counted round: SAMPLES_PER_ROUND redundant data
    # ticks then one ACK tick (echo/vote); residue data rounds stay
    # single-tick with RESIDUE_BITS check rounds appended.  Elimination
    # stages use redundant transmit ticks, a valid tick (ACK), then the
    # reflect tick.  A failed compare leaves the ACK silent so the whole
    # stage repeats the round in lockstep, bounded by int_budget.

    def _int_assert(self) -> None:
        assert self.rel is not None
        if self.confirming:
            if self.iphase == 1 and self.int_accept:
                self.rel.assert_signal(self.rel_tid)
                self.drove_rel = True
        elif self.mechanism == "count":
            if self.integ != "residue" \
                    and self.iphase == SAMPLES_PER_ROUND[self.integ] \
                    and self.int_accept:
                self.rel.assert_signal(self.rel_tid)
                self.drove_rel = True
        else:  # elim
            ns = _elim_samples(self.integ)
            if self.iphase == ns and self.int_accept:
                self.rel.assert_signal(self.rel_tid)
                self.drove_rel = True
            elif self.iphase == ns + 1 and self.pending_reflect == 1:
                self.rel.assert_signal(self.rel_tid)
                self.drove_rel = True

    def _sample_tx(self) -> int:
        assert self.tx is not None
        cnt = self.tx.sample_count()
        if cnt > self.n_slaves:
            self.fault_suspected = True
            cnt = self.n_slaves
        return cnt

    def _int_decide(self, ok: bool, value: int) -> None:
        """Accept or retry a verified round; an exhausted retry budget
        accepts the (suspect) value but latches ``int_exhausted`` so the
        network escalates before the result can be delivered."""
        if self.mutation == "skip-echo-compare":
            ok = True
        if ok:
            self.int_accept = True
            self.int_value = value
            return
        self.int_faults += 1
        if self.int_retries < self.int_budget:
            self.int_retries += 1
            self.int_accept = False
        else:
            self.int_exhausted = True
            self.int_accept = True
            self.int_value = value

    def _int_sample(self) -> None:
        if self.confirming:
            self._int_sample_confirm()
        elif self.mechanism == "count":
            self._int_sample_count()
        else:
            self._int_sample_elim()

    def _int_sample_confirm(self) -> None:
        """The muster round: every slave in the round phase asserts, so
        the count must equal n_slaves.  Catches gather-phase overshoot
        (a miscount releasing rounds with a straggler pending) before
        any data round runs."""
        if self.iphase == 0:
            cnt = self._sample_tx()
            self._int_decide(cnt == self.n_slaves, cnt)
            self.iphase = 1
        else:  # ACK tick
            if self.int_accept:
                self.confirming = False
            self.iphase = 0

    def _int_sample_count(self) -> None:
        if self.integ == "residue":
            cnt = self._sample_tx()
            if self.round < self.in_width:
                self.acc += cnt << self.round
            else:
                self.racc += cnt << (self.round - self.in_width)
            self.round += 1
            if self.round >= self.in_width + RESIDUE_BITS:
                ok = (self.acc % RESIDUE_MOD) == (self.racc % RESIDUE_MOD)
                if self.mutation == "skip-echo-compare":
                    ok = True
                if not ok:
                    self.int_faults += 1
                    self.int_exhausted = True
                self._finish(self.acc)
            return
        ns = SAMPLES_PER_ROUND[self.integ]
        if self.iphase < ns:
            self.int_samples.append(self._sample_tx())
            self.iphase += 1
            if self.iphase == ns:
                self._int_judge_samples()
        else:  # ACK tick
            self.int_samples = []
            self.iphase = 0
            if self.int_accept:
                self.acc += self.int_value << self.round
                self.round += 1
                if self.round >= self.in_width:
                    self._finish(self.acc)

    def _int_judge_samples(self) -> None:
        if self.integ == "vote":
            maj = majority(self.int_samples)
            if maj is not None:
                if any(s != maj for s in self.int_samples):
                    self.int_corrected += 1
                self._int_decide(True, maj)
            else:
                self._int_decide(False, self.int_samples[0])
        else:  # echo pair
            ok = self.int_samples[0] == self.int_samples[1]
            self._int_decide(ok, self.int_samples[0])

    def _int_sample_elim(self) -> None:
        ns = _elim_samples(self.integ)
        if self.iphase < ns:
            self.int_samples.append(self._sample_tx())
            self.iphase += 1
            if self.iphase == ns:
                self._int_judge_samples()
        elif self.iphase == ns:  # valid tick
            self.int_samples = []
            if not self.int_accept:
                self.iphase = 0
                return
            own_bit = (self.own >> self.cur_bit) & 1
            holders = self.int_value + (1 if self.own_competing
                                        and own_bit == self.strong_bit else 0)
            self.pending_reflect = (self.strong_bit if holders > 0
                                    else 1 - self.strong_bit)
            self.iphase = ns + 1
        else:  # reflect tick
            winner = self.pending_reflect
            own_bit = (self.own >> self.cur_bit) & 1
            if self.own_competing and own_bit != winner:
                self.own_competing = False
            self.acc |= winner << self.cur_bit
            self.pending_reflect = -1
            self.cur_bit -= 1
            self.iphase = 0
            if self.cur_bit < 0:
                self._finish(self.acc)

    # ------------------------------------------------------------------ #
    def will_act(self) -> bool:
        return (self.state in M_ACTING or self.validating
                or (self.own != 0 and not self.own_set))

    @property
    def idle(self) -> bool:
        return self.state == M_GATHER and not self.own_set \
            and self.arrived == 0

    def snapshot(self) -> tuple:
        return (self.state, self.own, self.own_set, self.arrived, self.acc,
                self.round, self.cur_bit, self.own_competing,
                self.pending_reflect, self.result, self.bc_value,
                self.bc_idx, self.drove_rel, self.fault_suspected,
                self.mechanism, self.in_width, self.strong_bit, self.bw,
                self.finalize, self.n_slaves, self.integ, self.int_budget,
                self.confirming, self.iphase, tuple(self.int_samples),
                self.int_accept, self.int_value, self.int_retries,
                self.int_faults, self.int_corrected, self.int_exhausted,
                self.racc, self.validating)

    def restore(self, snap: tuple) -> None:
        (self.state, self.own, self.own_set, self.arrived, self.acc,
         self.round, self.cur_bit, self.own_competing,
         self.pending_reflect, self.result, self.bc_value, self.bc_idx,
         self.drove_rel, self.fault_suspected, self.mechanism,
         self.in_width, self.strong_bit, self.bw, self.finalize,
         self.n_slaves, self.integ, self.int_budget, self.confirming,
         self.iphase, int_samples, self.int_accept, self.int_value,
         self.int_retries, self.int_faults, self.int_corrected,
         self.int_exhausted, self.racc, self.validating) = snap
        self.int_samples = list(int_samples)
