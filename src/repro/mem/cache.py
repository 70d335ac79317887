"""Set-associative cache array with MESI line states and LRU replacement.

This is the *tag/state* array only: data values live in the functional
memory image, so the array tracks presence, coherence state and recency.
Used for both private L1s and the shared L2 banks.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from enum import Enum

from ..common.errors import SimulationError
from ..common.params import CacheConfig


class MESI(str, Enum):
    """Coherence states of a cached line."""

    I = "I"   # invalid / not present
    S = "S"   # shared, clean
    E = "E"   # exclusive, clean
    M = "M"   # modified (dirty, exclusive)

    @property
    def exclusive(self) -> bool:
        return self in (MESI.E, MESI.M)

    @property
    def valid(self) -> bool:
        return self is not MESI.I


@dataclass(slots=True)
class CacheLineEntry:
    line_addr: int
    state: MESI
    lru: int = 0


@dataclass(frozen=True)
class Victim:
    """An evicted line returned by :meth:`CacheArray.insert`."""

    line_addr: int
    state: MESI

    @property
    def dirty(self) -> bool:
        return self.state is MESI.M


class CacheArray:
    """Tag/state array: ``num_sets`` sets of ``assoc`` ways, true LRU.

    One flat ``line -> entry`` index answers every lookup; a set's dict
    is made on its first insert and is read only to pick the LRU victim,
    so an array costs only the sets its run fills.

    An array that holds only every *interleave*-th line -- an L2 home
    slice, when lines are interleaved across that many tiles -- drops
    those low line-index bits from its set index, so every set stays
    reachable."""

    def __init__(self, config: CacheConfig, interleave: int = 1):
        self.config = config
        self.num_sets = config.num_sets
        self.assoc = config.assoc
        self.line_bytes = config.line_bytes
        #: Bytes of address space per set-index step.
        self._set_stride = config.line_bytes * interleave
        #: Every resident line's entry.
        self._lines: dict[int, CacheLineEntry] = {}
        #: Set index -> that set's resident lines, for victim choice;
        #: made on the set's first insert.
        self._sets: defaultdict[int, dict[int, CacheLineEntry]] = \
            defaultdict(dict)
        self._tick = 0
        self.evictions = 0

    # ------------------------------------------------------------------ #
    def _set_index(self, line_addr: int) -> int:
        return (line_addr // self._set_stride) % self.num_sets

    def lookup(self, line_addr: int, *, touch: bool = True
               ) -> CacheLineEntry | None:
        """Return the entry for *line_addr* if valid, else None."""
        entry = self._lines.get(line_addr)
        if entry is None or entry.state is MESI.I:
            return None
        if touch:
            self._tick += 1
            entry.lru = self._tick
        return entry

    def probe(self, line_addr: int) -> MESI:
        """State of *line_addr* without touching LRU (I if absent)."""
        entry = self._lines.get(line_addr)
        return MESI.I if entry is None else entry.state

    # ------------------------------------------------------------------ #
    def insert(self, line_addr: int, state: MESI) -> Victim | None:
        """Install *line_addr* in *state*; return the victim if one was
        evicted.  Installing over an existing entry just updates it."""
        if state is MESI.I:
            raise SimulationError("cannot insert a line in state I")
        self._tick += 1
        existing = self._lines.get(line_addr)
        if existing is not None:
            existing.state = state
            existing.lru = self._tick
            return None
        cset = self._sets[self._set_index(line_addr)]
        victim = None
        if len(cset) >= self.assoc:
            vaddr = min(cset, key=lambda a: cset[a].lru)
            ventry = cset.pop(vaddr)
            del self._lines[vaddr]
            victim = Victim(vaddr, ventry.state)
            self.evictions += 1
        cset[line_addr] = self._lines[line_addr] = CacheLineEntry(
            line_addr, state, self._tick)
        return victim

    def set_state(self, line_addr: int, state: MESI) -> None:
        """Change the state of a resident line (or drop it for I)."""
        if state is MESI.I:
            self.invalidate(line_addr)
            return
        entry = self._lines.get(line_addr)
        if entry is None:
            raise SimulationError(
                f"set_state({state}) on absent line {line_addr:#x}")
        entry.state = state

    def invalidate(self, line_addr: int) -> MESI:
        """Drop *line_addr*; returns its prior state (I if absent)."""
        entry = self._lines.pop(line_addr, None)
        if entry is None:
            return MESI.I
        del self._sets[self._set_index(line_addr)][line_addr]
        return entry.state

    # ------------------------------------------------------------------ #
    def occupancy(self) -> int:
        return len(self._lines)

    def resident_lines(self) -> list[int]:
        return sorted(self._lines)
