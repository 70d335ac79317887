"""Home-side controller: one L2 bank slice + directory slice per tile.

The protocol is home-serialized: every transition for a line is processed at
its home tile, one transaction at a time (a per-line ``busy`` flag with a
FIFO of pending requests).  Owners and sharers respond *to the home*, and
the home responds to the requester.  This costs an extra hop on
cache-to-cache transfers relative to forwarding protocols, but it is
race-free by construction, and the message mix it generates (request + data
reply + invalidations/acks/write-backs) is exactly what Figure 7 counts.

Directory state is full-map (a dict keyed by line) and persists across L2
array evictions -- i.e. the directory is conceptually backed by memory,
while the L2 tag array models on-chip residency for *timing* (an array miss
adds the 400-cycle memory fetch).  See DESIGN.md §2.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

from ..common.errors import ProtocolError
from ..common.params import CacheConfig, NocConfig
from ..common.stats import StatsRegistry
from ..noc.network import Network
from ..noc.packet import Message
from ..obs import events as obs_ev
from ..sim.component import Component
from ..sim.engine import Engine
from .address import AddressMap
from .cache import CacheArray, MESI
from .memory import MemoryController
from .protocol import kind_table

if TYPE_CHECKING:
    from .l1 import L1Cache


class DirState(str, Enum):
    I = "I"    # no L1 holds the line
    S = "S"    # one or more read-only sharers
    EM = "EM"  # a single exclusive owner (E or M in its L1)


#: Counter bumped when a request's transaction starts.
_BEGIN_COUNTERS = {"GetS": "dir.gets", "GetM": "dir.getm",
                   "PutM": "dir.putm"}


@dataclass(slots=True)
class DirEntry:
    state: DirState = DirState.I
    sharers: set[int] = field(default_factory=set)
    owner: int | None = None
    busy: bool = False
    #: Requests waiting for the current transaction to finish.
    pending: deque = field(default_factory=deque)
    #: Continuation state of the in-flight transaction.
    trans: dict | None = None


class HomeController(Component):
    """Directory + L2 bank controller for one tile."""

    def __init__(self, engine: Engine, stats: StatsRegistry, tile: int,
                 l2cfg: CacheConfig, noc_cfg: NocConfig, network: Network,
                 memctrl: MemoryController, amap: AddressMap):
        super().__init__(engine, stats, f"dir{tile}")
        self.tile = tile
        self.network = network
        self.memctrl = memctrl
        # This slice holds only the lines homed here: every num_tiles-th.
        self.l2 = CacheArray(l2cfg, interleave=amap.num_tiles)
        self._l2_latency = l2cfg.total_latency
        self._kinds = kind_table(noc_cfg)
        self.entries: dict[int, DirEntry] = {}
        #: Every tile's L1 controller, by tile; filled by the chip.
        self.l1s: list[L1Cache] = []

    # ------------------------------------------------------------------ #
    def _send(self, dst_tile: int, kind: str, line: int) -> None:
        category, size = self._kinds[kind]
        self.network.send(Message(self.tile, dst_tile, kind, category, size,
                                  {"line": line}, self.l1s[dst_tile].receive))

    # ------------------------------------------------------------------ #
    # Inbound dispatch
    # ------------------------------------------------------------------ #
    def receive(self, msg: Message) -> None:
        line = msg.payload["line"]
        entry = self.entries.get(line)
        if entry is None:
            entry = self.entries[line] = DirEntry()
        kind = msg.kind
        if self.tracer.enabled:
            self.tracer.emit(self.now, self.name, obs_ev.DIR_MSG,
                             msg_kind=kind, src=msg.src, line=line,
                             queued=len(entry.pending))
        if kind in ("GetS", "GetM", "PutM"):
            if self.metrics is not None:
                # Depth the request sees on arrival (0 = served directly).
                self.metrics.histogram("dir.queue_depth").record(
                    len(entry.pending))
            if entry.busy or entry.pending:
                # Queue behind the in-flight transaction (and behind any
                # already-queued requests, preserving FIFO order even across
                # the one-cycle drain turnaround).
                entry.pending.append(msg)
                self.stats.counters["dir.queued"] += 1
            else:
                self._begin(entry, msg)
        elif kind == "InvAck":
            self._on_inv_ack(entry, msg)
        elif kind == "WbData":
            self._on_wb_data(entry, msg)
        else:
            raise ProtocolError(f"home {self.tile} got unexpected {kind}")

    # ------------------------------------------------------------------ #
    # Transaction start: pay L2 access (plus memory on an array miss)
    # ------------------------------------------------------------------ #
    def _begin(self, entry: DirEntry, msg: Message) -> None:
        entry.busy = True
        line = msg.payload["line"]
        kind = msg.kind
        counters = self.stats.counters
        counters[_BEGIN_COUNTERS[kind]] += 1
        hit = self.l2.lookup(line) is not None
        if hit or kind == "PutM":
            # Write-backs allocate directly into the bank (full-line data).
            counters["l2.hits"] += 1
            if kind == "PutM":
                self.l2.insert(line, MESI.M)
            self.engine.schedule(self._l2_latency, self._act, entry, msg)
        else:
            counters["l2.misses"] += 1
            self.engine.schedule(self._l2_latency, self._fetch, entry, msg)

    def _fetch(self, entry: DirEntry, msg: Message) -> None:
        line = msg.payload["line"]
        self.memctrl.access(line, self._fill_l2, entry, msg)

    def _fill_l2(self, entry: DirEntry, msg: Message) -> None:
        # Silent array eviction: directory state for the victim is retained
        # (memory-backed full-map directory).
        self.l2.insert(msg.payload["line"], MESI.E)
        self._act(entry, msg)

    # ------------------------------------------------------------------ #
    # Directory actions
    # ------------------------------------------------------------------ #
    def _act(self, entry: DirEntry, msg: Message) -> None:
        if msg.kind == "GetS":
            self._act_gets(entry, msg)
        elif msg.kind == "GetM":
            self._act_getm(entry, msg)
        else:
            self._act_putm(entry, msg)

    def _act_gets(self, entry: DirEntry, msg: Message) -> None:
        line, req = msg.payload["line"], msg.src
        if entry.state is DirState.I:
            entry.state = DirState.EM
            entry.owner = req
            self._send(req, "DataE", line)
            self._finish(entry)
        elif entry.state is DirState.S:
            entry.sharers.add(req)
            self._send(req, "DataS", line)
            self._finish(entry)
        else:  # EM
            owner = entry.owner
            if owner == req:
                # Lost-copy refetch (crossing with a write-back): regrant.
                self.stats.counters["dir.refetch"] += 1
                self._send(req, "DataE", line)
                self._finish(entry)
            else:
                entry.trans = {"op": "GetS", "req": req, "prev_owner": owner}
                self._send(owner, "FwdGetS", line)

    def _act_getm(self, entry: DirEntry, msg: Message) -> None:
        line, req = msg.payload["line"], msg.src
        if entry.state is DirState.I:
            entry.state = DirState.EM
            entry.owner = req
            self._send(req, "DataE", line)
            self._finish(entry)
        elif entry.state is DirState.EM:
            owner = entry.owner
            if owner == req:
                # Upgrade race remnant: requester already owns it.
                self._send(req, "GrantM", line)
                self._finish(entry)
            else:
                entry.trans = {"op": "GetM", "req": req, "prev_owner": owner}
                self._send(owner, "FwdInv", line)
        else:  # S
            targets = entry.sharers - {req}
            was_sharer = req in entry.sharers
            if not targets:
                entry.state = DirState.EM
                entry.owner = req
                entry.sharers.clear()
                self._send(req, "GrantM" if was_sharer else "DataE", line)
                self._finish(entry)
            else:
                entry.trans = {"op": "GetM", "req": req,
                               "acks": len(targets),
                               "was_sharer": was_sharer}
                for t in sorted(targets):
                    self._send(t, "Inv", line)

    def _act_putm(self, entry: DirEntry, msg: Message) -> None:
        line, src = msg.payload["line"], msg.src
        if entry.state is DirState.EM and entry.owner == src:
            entry.state = DirState.I
            entry.owner = None
            self.stats.counters["dir.putm_fresh"] += 1
        else:
            # Stale write-back from a previous owner that crossed with a
            # forward; the forward response already carried the data.
            self.stats.counters["dir.putm_stale"] += 1
        self._send(src, "PutAck", line)
        self._finish(entry)

    # ------------------------------------------------------------------ #
    # Transaction continuations
    # ------------------------------------------------------------------ #
    def _on_inv_ack(self, entry: DirEntry, msg: Message) -> None:
        t = entry.trans
        if not (entry.busy and t and t["op"] == "GetM" and "acks" in t):
            raise ProtocolError(
                f"home {self.tile}: unexpected InvAck for "
                f"{msg.payload['line']:#x}")
        t["acks"] -= 1
        if t["acks"] == 0:
            line, req = msg.payload["line"], t["req"]
            entry.state = DirState.EM
            entry.owner = req
            entry.sharers.clear()
            self._send(req, "GrantM" if t["was_sharer"] else "DataE", line)
            self._finish(entry)

    def _on_wb_data(self, entry: DirEntry, msg: Message) -> None:
        t = entry.trans
        if not (entry.busy and t and t["op"] in ("GetS", "GetM")):
            raise ProtocolError(
                f"home {self.tile}: unexpected WbData for "
                f"{msg.payload['line']:#x}")
        line, req = msg.payload["line"], t["req"]
        self.l2.insert(line, MESI.M)
        if t["op"] == "GetS":
            entry.state = DirState.S
            entry.sharers = {t["prev_owner"], req}
            entry.owner = None
            self._send(req, "DataS", line)
        else:  # GetM
            entry.state = DirState.EM
            entry.owner = req
            self._send(req, "DataE", line)
        self._finish(entry)

    # ------------------------------------------------------------------ #
    def _finish(self, entry: DirEntry) -> None:
        entry.busy = False
        entry.trans = None
        if entry.pending:
            # One-cycle turnaround before the next queued transaction.
            self.engine.schedule(1, self._drain, entry)

    def _drain(self, entry: DirEntry) -> None:
        if not entry.busy and entry.pending:
            self._begin(entry, entry.pending.popleft())

    # ------------------------------------------------------------------ #
    # Introspection (tests)
    # ------------------------------------------------------------------ #
    def dir_state(self, line: int) -> tuple[DirState, frozenset[int],
                                            int | None]:
        entry = self.entries.get(line)
        if entry is None:
            return DirState.I, frozenset(), None
        return entry.state, frozenset(entry.sharers), entry.owner
