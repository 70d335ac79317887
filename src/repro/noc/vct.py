"""Virtual cut-through mesh network with finite buffers and backpressure.

The default network model (:class:`repro.noc.network.Network`) charges
per-hop latency plus link serialization, with contention modelled as
waiting for the link to free.  This module provides a more detailed
alternative: packets claim *downstream buffer space* before traversing a
link (credit-style backpressure), cut through routers header-first, and
stall in place when the next router's input buffer is full -- so congestion
propagates backwards like in a real mesh.

Model summary (packet-granular virtual cut-through):

* each router input port has a buffer of ``buffer_flits`` flits;
* a packet may start crossing a link only when the link is idle *and* the
  downstream input buffer has room for the whole packet;
* the header reaches the next router after ``link_latency`` +
  ``router_latency`` and may immediately compete for the next hop
  (cut-through); the tail follows ``flits`` cycles behind;
* the upstream buffer is released when the tail leaves, waking stalled
  packets in FIFO order.

XY routing plus packet-granular buffering keeps the channel-dependency
graph acyclic, so the model is deadlock-free by construction; the test
suite additionally hammers it with random traffic and checks conservation.

Interface-compatible with :class:`~repro.noc.network.Network` (``send``,
``zero_load_latency``, ``routers``, message/flit accounting), so the chip
can swap models via ``NocConfig.model``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..common.params import NocConfig
from ..common.stats import StatsRegistry
from ..obs import events as obs_ev
from ..sim.component import Component
from ..sim.engine import Engine
from .network import Route, XYRoutes, fault_defer
from .packet import Message
from .router import Router
from .topology import Mesh2D


@dataclass
class _LinkState:
    """One directed link plus the downstream input buffer it feeds."""

    src: int
    dst: int
    busy_until: int = 0
    free_flits: int = 0          # space left in the downstream buffer
    waiters: deque = field(default_factory=deque)
    #: Flits sent; at one flit per cycle, also the busy cycles.
    flits_carried: int = 0


@dataclass
class _Packet:
    msg: Message
    flits: int
    #: The links of the packet's XY route, in path order.
    links: tuple[_LinkState, ...]
    #: Index of the link the packet competes for or crosses next.
    hop: int = 0


class VCTNetwork(Component):
    """Flit-accurate virtual cut-through 2D-mesh interconnect."""

    def __init__(self, engine: Engine, stats: StatsRegistry,
                 config: NocConfig, buffer_flits: int = 4):
        super().__init__(engine, stats, "vct")
        self.config = config
        #: Bound by the chip when a FaultPlan is enabled (repro.faults).
        self.injector = None
        self._channel_clear: dict[tuple[int, int], int] = {}
        self.buffer_flits = buffer_flits
        self.mesh = Mesh2D(config.rows, config.cols)
        self.routers = [Router(t) for t in range(self.mesh.num_tiles)]
        self.links: dict[tuple[int, int], _LinkState] = {}
        for t in range(self.mesh.num_tiles):
            for n in self.mesh.neighbors(t):
                self.links[(t, n)] = _LinkState(t, n,
                                                free_flits=buffer_flits)
        #: Builds a (src, dst) pair's route; ``_routes`` keeps each one
        #: from its first use.
        self._route = XYRoutes(self.mesh, self.links, self.routers).route
        self._routes: dict[tuple[int, int], Route] = {}

    # ------------------------------------------------------------------ #
    def send(self, msg: Message) -> None:
        msg.send_time = self.now
        if msg.src == msg.dst:
            self.stats.bump("noc.local_deliveries")
            self.schedule(self.config.router_latency, self._deliver, msg)
            return
        self._inject(msg)

    def _inject(self, msg: Message) -> None:
        """Put *msg* on the mesh unless a fault holds it back; a held
        message re-enters here later."""
        if self.injector is not None and fault_defer(self, msg):
            return
        key = (msg.src, msg.dst)
        route = self._routes.get(key)
        if route is None:
            route = self._routes[key] = self._route(msg.src, msg.dst)
        links, source, dest, between = route
        flits = self.config.flits(msg.size_bytes)
        if flits > self.buffer_flits:
            # A packet must fit in one input buffer (packet-granular VCT).
            flits_capped = self.buffer_flits
            self.stats.bump("vct.oversize_packets")
        else:
            flits_capped = flits
        msg.hops = len(links)
        self.stats.add_message(msg.category, flits, msg.hops)
        source.injected += 1
        dest.ejected += 1
        for router in between:
            router.forwarded += 1
        if self.tracer.enabled:
            self.tracer.emit(self.now, self.name, obs_ev.NOC_SEND,
                             src=msg.src, dst=msg.dst, msg_kind=msg.kind,
                             flits=flits, hops=msg.hops)
        packet = _Packet(msg, flits_capped, links)
        # Injection pipeline, then compete for the first link.
        self.schedule(self.config.router_latency, self._request_hop,
                      packet)

    # ------------------------------------------------------------------ #
    def _request_hop(self, packet: _Packet) -> None:
        link = packet.links[packet.hop]
        link.waiters.append(packet)
        if self.metrics is not None:
            # Router input-queue depth at the moment a packet lines up.
            self.metrics.histogram("vct.queue_depth").record(
                len(link.waiters))
        self._pump(link)

    def _pump(self, link: _LinkState) -> None:
        """Grant the head waiter if the link is idle and space exists."""
        while link.waiters:
            if link.busy_until > self.now:
                self.engine.schedule_at(link.busy_until, self._pump, link,
                                        priority=1)
                return
            head = link.waiters[0]
            if link.free_flits < head.flits:
                return  # wait for a buffer release to re-pump
            link.waiters.popleft()
            self._traverse(head, link)

    def _traverse(self, packet: _Packet, link: _LinkState) -> None:
        start = self.now
        end = start + packet.flits           # serialization
        link.busy_until = end
        link.free_flits -= packet.flits
        link.flits_carried += packet.flits

        header_at_next = start + self.config.link_latency \
            + self.config.router_latency
        tail_leaves_upstream = end

        # Release the *upstream* buffer when the tail leaves this router.
        if packet.hop > 0:
            upstream = packet.links[packet.hop - 1]
            self.engine.schedule_at(tail_leaves_upstream,
                                    self._release, upstream, packet.flits)

        packet.hop += 1
        if packet.hop < len(packet.links):
            # Cut-through: compete for the next hop as the header arrives.
            self.engine.schedule_at(header_at_next, self._request_hop,
                                    packet)
        else:
            # Ejection: the full packet must arrive (tail + wire + router).
            tail_at_dst = end + self.config.link_latency \
                + self.config.router_latency
            self.engine.schedule_at(tail_at_dst, self._eject, packet)

    def _eject(self, packet: _Packet) -> None:
        # Free the final input buffer.
        self._release(packet.links[-1], packet.flits)
        self._deliver(packet.msg)

    def _release(self, link: _LinkState, flits: int) -> None:
        link.free_flits = min(link.free_flits + flits, self.buffer_flits)
        self._pump(link)

    def _deliver(self, msg: Message) -> None:
        msg.arrive_time = self.now
        if self.tracer.enabled:
            self.tracer.emit(self.now, self.name, obs_ev.NOC_DELIVER,
                             src=msg.src, dst=msg.dst, msg_kind=msg.kind,
                             latency=msg.latency)
        if self.metrics is not None and msg.src != msg.dst:
            self.metrics.histogram("noc.msg_latency").record(msg.latency)
        if msg.on_delivery is not None:
            msg.on_delivery(msg)

    # ------------------------------------------------------------------ #
    def zero_load_latency(self, src: int, dst: int,
                          size_bytes: int) -> int:
        if src == dst:
            return self.config.router_latency
        hops = self.mesh.hops(src, dst)
        flits = min(self.config.flits(size_bytes), self.buffer_flits)
        per_hop = flits + self.config.link_latency \
            + self.config.router_latency
        # Cut-through: intermediate hops overlap serialization; only the
        # last hop waits for the tail.
        cut_through = self.config.link_latency + self.config.router_latency
        return (self.config.router_latency
                + (hops - 1) * cut_through
                + flits + cut_through)

    def link_utilization(self) -> dict[tuple[int, int], float]:
        if self.now == 0:
            return {key: 0.0 for key in self.links}
        return {key: link.flits_carried / self.now
                for key, link in self.links.items()}

    def in_flight(self) -> int:
        """Packets currently queued at any link (diagnostics)."""
        return sum(len(link.waiters) for link in self.links.values())
