"""The cache array against a reference array.

:class:`ReferenceArray` is the array in its plainest form: a list of
``num_sets`` dicts built up front, every operation going through the
set of its line.  Random scripts over every operation -- inserts with
and without a victim, lookups with and without an LRU touch, probes,
state changes (to ``I`` and on absent lines), invalidations, and a
state written through the entry a lookup returned, as the L1 does on a
store hit -- must give :class:`CacheArray` the same return values,
victims, LRU ticks, occupancy, resident lines and eviction count as the
reference, after every step.  Two planted defects show the comparison
can fail: an eviction that leaves the victim findable, as a line index
not updated on eviction would, and a victim picked by insertion order
instead of LRU.
"""

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.common.errors import SimulationError
from repro.common.params import CacheConfig
from repro.mem.cache import CacheArray, CacheLineEntry, MESI, Victim

LINE_BYTES = 64


class ReferenceArray:
    """Tag/state array as a list of per-set dicts, true LRU."""

    def __init__(self, config: CacheConfig, interleave: int = 1):
        self.num_sets = config.num_sets
        self.assoc = config.assoc
        self._set_stride = config.line_bytes * interleave
        self._sets = [{} for _ in range(self.num_sets)]
        self._tick = 0
        self.evictions = 0

    def _set_of(self, line_addr):
        return self._sets[(line_addr // self._set_stride) % self.num_sets]

    def lookup(self, line_addr, *, touch=True):
        entry = self._set_of(line_addr).get(line_addr)
        if entry is None or entry.state is MESI.I:
            return None
        if touch:
            self._tick += 1
            entry.lru = self._tick
        return entry

    def probe(self, line_addr):
        entry = self._set_of(line_addr).get(line_addr)
        return MESI.I if entry is None else entry.state

    def _victim_of(self, cset):
        return min(cset, key=lambda a: cset[a].lru)

    def insert(self, line_addr, state):
        if state is MESI.I:
            raise SimulationError("cannot insert a line in state I")
        cset = self._set_of(line_addr)
        self._tick += 1
        existing = cset.get(line_addr)
        if existing is not None:
            existing.state = state
            existing.lru = self._tick
            return None
        victim = None
        if len(cset) >= self.assoc:
            vaddr = self._victim_of(cset)
            ventry = cset.pop(vaddr)
            victim = Victim(vaddr, ventry.state)
            self.evictions += 1
        cset[line_addr] = CacheLineEntry(line_addr, state, self._tick)
        return victim

    def set_state(self, line_addr, state):
        cset = self._set_of(line_addr)
        if state is MESI.I:
            cset.pop(line_addr, None)
            return
        entry = cset.get(line_addr)
        if entry is None:
            raise SimulationError(
                f"set_state({state}) on absent line {line_addr:#x}")
        entry.state = state

    def invalidate(self, line_addr):
        entry = self._set_of(line_addr).pop(line_addr, None)
        return MESI.I if entry is None else entry.state

    def occupancy(self):
        return sum(len(s) for s in self._sets)

    def resident_lines(self):
        return sorted(a for s in self._sets for a in s)


class StaleEvictionArray(ReferenceArray):
    """Planted defect: an evicted line leaves its set but stays findable
    by ``lookup`` and ``probe`` until it is inserted or dropped again."""

    def __init__(self, config, interleave=1):
        super().__init__(config, interleave)
        self._stale = {}

    def insert(self, line_addr, state):
        self._stale.pop(line_addr, None)
        victim = super().insert(line_addr, state)
        if victim is not None:
            self._stale[victim.line_addr] = CacheLineEntry(
                victim.line_addr, victim.state)
        return victim

    def lookup(self, line_addr, *, touch=True):
        entry = super().lookup(line_addr, touch=touch)
        return self._stale.get(line_addr) if entry is None else entry

    def probe(self, line_addr):
        stale = self._stale.get(line_addr)
        return super().probe(line_addr) if stale is None else stale.state

    def set_state(self, line_addr, state):
        self._stale.pop(line_addr, None)
        super().set_state(line_addr, state)

    def invalidate(self, line_addr):
        self._stale.pop(line_addr, None)
        return super().invalidate(line_addr)


class InsertionOrderArray(ReferenceArray):
    """Planted defect: the victim is the line inserted first, not the
    least recently used."""

    def _victim_of(self, cset):
        return next(iter(cset))


_STATES = (MESI.S, MESI.E, MESI.M)


def _ops(line):
    """One scripted step on a line drawn from *line*."""
    return st.one_of(
        st.tuples(st.just("insert"), line,
                  st.sampled_from(_STATES + (MESI.I,))),
        st.tuples(st.just("lookup"), line, st.booleans()),
        st.tuples(st.just("probe"), line),
        st.tuples(st.just("set_state"), line,
                  st.sampled_from(_STATES + (MESI.I,))),
        st.tuples(st.just("invalidate"), line),
        # Look up (touching or not), then write the state through the
        # entry.
        st.tuples(st.just("write"), line, st.sampled_from(_STATES),
                  st.booleans()),
    )


@st.composite
def _cases(draw):
    """An array shape and a script whose lines crowd one or two sets, so
    sets fill, evict and refill."""
    assoc = draw(st.integers(1, 4))
    sets = draw(st.integers(1, 8))
    interleave = draw(st.integers(1, 4))
    hot = draw(st.lists(st.integers(0, sets - 1), min_size=1, max_size=2,
                        unique=True))
    # Line index ((tag * sets + s) * interleave + r) falls in set s.
    line = st.builds(
        lambda tag, s, r: ((tag * sets + s) * interleave + r) * LINE_BYTES,
        st.integers(0, assoc + 1), st.sampled_from(hot),
        st.integers(0, interleave - 1))
    script = draw(st.lists(_ops(line), min_size=20, max_size=80))
    return assoc, sets, interleave, script


def _entry(entry):
    return None if entry is None else (entry.line_addr, entry.state,
                                       entry.lru)


def _victim(victim):
    return None if victim is None else (victim.line_addr, victim.state)


def _apply(array, op):
    """Run one scripted step; its result, or the error it raised."""
    name, line, *args = op
    try:
        if name == "insert":
            return _victim(array.insert(line, args[0]))
        if name == "lookup":
            return _entry(array.lookup(line, touch=args[0]))
        if name == "probe":
            return array.probe(line)
        if name == "set_state":
            return array.set_state(line, args[0])
        if name == "invalidate":
            return array.invalidate(line)
        state, touch = args
        entry = array.lookup(line, touch=touch)
        if entry is not None:
            entry.state = state
        return _entry(entry)
    except SimulationError as exc:
        return ("error", str(exc))


def _observed(array):
    return (array.occupancy(), array.resident_lines(), array.evictions)


def _property(subject_class, phases=tuple(Phase)):
    """The comparison of *subject_class* against the reference, as a
    Hypothesis test."""

    @settings(max_examples=300, deadline=None, database=None,
              derandomize=True, phases=phases)
    @given(_cases())
    def check(case):
        assoc, sets, interleave, script = case
        config = CacheConfig(size_bytes=assoc * sets * LINE_BYTES,
                             assoc=assoc, line_bytes=LINE_BYTES)
        subject = subject_class(config, interleave=interleave)
        reference = ReferenceArray(config, interleave=interleave)
        for step, op in enumerate(script):
            got, want = _apply(subject, op), _apply(reference, op)
            assert got == want, (step, op)
            assert _observed(subject) == _observed(reference), (step, op)

    return check


def test_cache_array_matches_reference():
    _property(CacheArray)()


@pytest.mark.parametrize("mutant", [StaleEvictionArray, InsertionOrderArray])
def test_planted_defect_is_caught(mutant):
    # Found is enough: shrinking the failing script would only cost time.
    with pytest.raises(AssertionError):
        _property(mutant, phases=(Phase.generate,))()


def test_store_hit_state_is_seen_by_probe_and_victim():
    """A state written through the entry a lookup returned -- the L1's
    store hit -- is what ``probe`` reports and what the eviction
    carries."""
    config = CacheConfig(size_bytes=LINE_BYTES, assoc=1,
                         line_bytes=LINE_BYTES)
    for array in (CacheArray(config), ReferenceArray(config)):
        array.insert(0, MESI.E)
        array.lookup(0).state = MESI.M
        assert array.probe(0) is MESI.M
        assert array.insert(LINE_BYTES, MESI.S) == Victim(0, MESI.M)
