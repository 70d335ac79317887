"""Private L1 cache controller.

Serves the core's loads, stores and atomics; talks to the home directory
over the NoC; supports *line watches* -- callbacks fired once when the
line is invalidated (``Inv``/``FwdInv``), evicted, or written by a local
store or atomic hit -- which the core uses to implement event-driven
busy-wait spinning (a spinning core costs zero simulator events and zero
network traffic while its copy stays valid, exactly like real
test&test&set spinning, and is woken by the invalidation the releasing
store causes).  A ``FwdGetS`` downgrade keeps the line readable, so it
fires no watchers.

Write-backs stay in a write-back buffer until the home acknowledges
(``PutAck``); a forward that crosses with the write-back is answered as
if the line were still resident (data values live in the functional
memory, so the buffer only counts the write-backs in flight per line).
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Callable

from ..common.errors import ProtocolError
from ..common.params import CacheConfig, NocConfig
from ..common.stats import StatsRegistry
from ..noc.network import Network
from ..noc.packet import Message
from ..obs import events as obs_ev
from ..sim.component import Component
from ..sim.engine import Engine
from .address import AddressMap
from .cache import CacheArray, MESI, Victim
from .funcmem import FunctionalMemory
from .mshr import MshrTable, Waiter
from .protocol import kind_table

if TYPE_CHECKING:
    from .directory import HomeController

_S, _E, _M = MESI.S, MESI.E, MESI.M


class L1Cache(Component):
    """Private L1 data cache for one core."""

    def __init__(self, engine: Engine, stats: StatsRegistry, tile: int,
                 l1cfg: CacheConfig, noc_cfg: NocConfig, network: Network,
                 funcmem: FunctionalMemory, amap: AddressMap):
        super().__init__(engine, stats, f"l1_{tile}")
        self.tile = tile
        self.cfg = l1cfg
        self.network = network
        self.funcmem = funcmem
        self.array = CacheArray(l1cfg)
        self.mshr = MshrTable()
        self._line_bytes = amap.line_bytes
        self._num_tiles = amap.num_tiles
        self._hit_latency = l1cfg.total_latency
        self._kinds = kind_table(noc_cfg)
        #: line -> write-backs sent and not yet acknowledged.
        self._wb_buffer: dict[int, int] = {}
        #: line -> callbacks fired on invalidate/evict/local write.
        self._watchers: defaultdict[int, list[Callable[[], None]]] = \
            defaultdict(list)
        #: Every tile's HomeController, by tile; filled by the chip.
        self.homes: list[HomeController] = []

    # ------------------------------------------------------------------ #
    # Core-facing API.  Callbacks run when the access commits.
    # ------------------------------------------------------------------ #
    def load(self, addr: int, callback: Callable[[int], None]) -> None:
        """Read the word at *addr*; ``callback(value)`` on completion."""
        self.engine.schedule(self._hit_latency, self._do_load, addr,
                             callback)

    def store(self, addr: int, value: int,
              callback: Callable[[], None]) -> None:
        """Write *value* to *addr*; ``callback()`` on commit."""
        self.engine.schedule(self._hit_latency, self._do_store, addr,
                             value, callback)

    def atomic(self, addr: int, fn: Callable[[int], int],
               callback: Callable[[int], None]) -> None:
        """Atomic read-modify-write; ``callback(old_value)`` on commit."""
        self.engine.schedule(self._hit_latency, self._do_atomic, addr, fn,
                             callback)

    def watch(self, addr: int, callback: Callable[[], None]) -> None:
        """Fire *callback* once, the next time the line holding *addr* is
        invalidated, evicted, or written by a store or atomic hit of this
        L1.  A ``FwdGetS`` downgrade leaves the line readable and does
        not fire it."""
        self._watchers[addr - addr % self._line_bytes].append(callback)

    # ------------------------------------------------------------------ #
    def _do_load(self, addr: int, callback) -> None:
        line = addr - addr % self._line_bytes
        if self.array.lookup(line) is not None:
            self.stats.counters["l1.load_hits"] += 1
            callback(self.funcmem.load(addr))
        else:
            # After the fill the access re-runs; the line is normally
            # resident by then, and a capacity conflict in between simply
            # misses again.
            self.stats.counters["l1.load_misses"] += 1
            self._miss(line, "S", self._do_load, (addr, callback))

    def _do_store(self, addr: int, value: int, callback) -> None:
        line = addr - addr % self._line_bytes
        entry = self.array.lookup(line)
        # A valid line that is not shared is exclusive (E or M).
        if entry is not None and entry.state is not _S:
            entry.state = _M
            self.stats.counters["l1.store_hits"] += 1
            self.funcmem.store(addr, value)
            if line in self._watchers:
                self._fire_watchers(line)
            callback()
        else:
            self.stats.counters["l1.store_misses" if entry is None
                                else "l1.store_upgrades"] += 1
            self._miss(line, "M", self._do_store, (addr, value, callback))

    def _do_atomic(self, addr: int, fn, callback) -> None:
        line = addr - addr % self._line_bytes
        entry = self.array.lookup(line)
        if entry is not None and entry.state is not _S:
            entry.state = _M
            self.stats.counters["l1.atomic_hits"] += 1
            old, _new = self.funcmem.rmw(addr, fn)
            if line in self._watchers:
                self._fire_watchers(line)
            callback(old)
        else:
            self.stats.counters["l1.atomic_misses"] += 1
            self._miss(line, "M", self._do_atomic, (addr, fn, callback))

    # ------------------------------------------------------------------ #
    def _miss(self, line: int, need: str, retry: Callable[..., None],
              args: tuple) -> None:
        """Park the access until *line* arrives in state *need*; it then
        re-runs as ``retry(*args)``."""
        waiter = Waiter(need, retry, args)
        if self.mshr.get(line) is not None:
            self.mshr.merge(line, waiter)
            return
        now = self.engine._now
        self.mshr.allocate(line, need, now).waiters.append(waiter)
        if self.tracer.enabled:
            self.tracer.emit(now, self.name, obs_ev.L1_MISS,
                             line=line, need=need,
                             outstanding=self.mshr.pending())
        if self.metrics is not None:
            self.metrics.histogram("l1.mshr_occupancy").record(
                self.mshr.pending())
        self._send_home(line, "GetS" if need == "S" else "GetM")

    def _send_home(self, line: int, kind: str) -> None:
        # AddressMap.home_of, inline on the per-message path.
        home = (line // self._line_bytes) % self._num_tiles
        category, size = self._kinds[kind]
        self.network.send(Message(self.tile, home, kind, category, size,
                                  {"line": line}, self.homes[home].receive))

    # ------------------------------------------------------------------ #
    # Inbound from the home
    # ------------------------------------------------------------------ #
    def receive(self, msg: Message) -> None:
        line = msg.payload["line"]
        kind = msg.kind
        if kind in ("DataS", "DataE", "GrantM"):
            self._on_fill(line, kind)
        elif kind == "Inv":
            self._on_inv(line)
        elif kind == "FwdGetS":
            self._on_fwd_gets(line)
        elif kind == "FwdInv":
            self._on_fwd_inv(line)
        elif kind == "PutAck":
            self._on_put_ack(line)
        else:
            raise ProtocolError(f"L1 {self.tile} got unexpected {kind}")

    def _on_fill(self, line: int, kind: str) -> None:
        entry = self.mshr.complete(line)
        if self.tracer.enabled:
            self.tracer.emit(self.now, self.name, obs_ev.L1_FILL,
                             line=line, msg_kind=kind,
                             wait=self.now - entry.issue_time)
        if self.metrics is not None:
            self.metrics.histogram("l1.miss_latency").record(
                self.now - entry.issue_time)
        if entry.requested == "M" or kind == "GrantM":
            state = _M
        elif kind == "DataE":
            state = _E
        else:
            state = _S
        victim = self.array.insert(line, state)
        if victim is not None:
            self._evict(victim)
        # All waiters (including the original requester) retry their access;
        # the common case hits immediately in the just-installed line.
        schedule = self.engine.schedule
        for waiter in entry.waiters:
            schedule(0, waiter.callback, *waiter.args)

    def _on_inv(self, line: int) -> None:
        # A silent S-eviction may have already dropped the line; ack anyway.
        self.array.invalidate(line)
        self.stats.counters["l1.invalidations"] += 1
        self.engine.schedule(self.cfg.latency, self._send_home, line,
                             "InvAck")
        self._fire_watchers(line)

    def _on_fwd_gets(self, line: int) -> None:
        entry = self.array.lookup(line, touch=False)
        if entry is not None:
            entry.state = _S
        else:
            self._check_wb_in_flight(line, "FwdGetS")
        self.engine.schedule(self.cfg.latency, self._send_home, line,
                             "WbData")

    def _on_fwd_inv(self, line: int) -> None:
        if self.array.invalidate(line) is MESI.I:
            self._check_wb_in_flight(line, "FwdInv")
        self.stats.counters["l1.invalidations"] += 1
        self.engine.schedule(self.cfg.latency, self._send_home, line,
                             "WbData")
        self._fire_watchers(line)

    def _on_put_ack(self, line: int) -> None:
        pending = self._wb_buffer.get(line)
        if not pending:
            raise ProtocolError(
                f"L1 {self.tile}: PutAck with empty WB buffer "
                f"for {line:#x}")
        if pending == 1:
            del self._wb_buffer[line]
        else:
            self._wb_buffer[line] = pending - 1

    def _check_wb_in_flight(self, line: int, cause: str) -> None:
        """A forward for a line this L1 no longer holds must have crossed
        one of its write-backs."""
        if not self._wb_buffer.get(line):
            raise ProtocolError(
                f"L1 {self.tile}: {cause} for absent line {line:#x} "
                f"with no write-back in flight")

    # ------------------------------------------------------------------ #
    def _evict(self, victim: Victim) -> None:
        self.stats.counters["l1.evictions"] += 1
        if self.tracer.enabled:
            self.tracer.emit(self.now, self.name, obs_ev.L1_EVICT,
                             line=victim.line_addr,
                             state=victim.state.name)
        # Wake watchers so a spinner never sleeps on a line the directory
        # no longer associates with us (lost-wakeup prevention).
        self._fire_watchers(victim.line_addr)
        if victim.state.exclusive:
            # E and M evictions both write back (E write-backs carry clean
            # data; this keeps the directory exact for exclusive lines).
            line = victim.line_addr
            self._wb_buffer[line] = self._wb_buffer.get(line, 0) + 1
            self._send_home(line, "PutM")
            self.stats.counters["l1.writebacks"] += 1
        # S evictions are silent.

    def _fire_watchers(self, line: int) -> None:
        watchers = self._watchers.pop(line, None)
        if watchers:
            schedule = self.engine.schedule
            for cb in watchers:
                schedule(0, cb)

    # ------------------------------------------------------------------ #
    # Introspection (tests)
    # ------------------------------------------------------------------ #
    def state_of(self, addr: int) -> MESI:
        return self.array.probe(addr - addr % self._line_bytes)
