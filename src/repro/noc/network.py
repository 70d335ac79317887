"""The main data network: a 2D mesh with XY routing and hop-level timing.

Every message pays, per hop, the router pipeline latency plus link
serialization (``flits`` cycles on the link, subject to the link being free)
plus wire propagation.  Same-tile transfers (an L1 talking to its own L2
bank) bypass the network entirely and are not counted as network traffic,
matching how the paper attributes messages.

XY routes are fixed, so each (src, dst) pair's route -- the links it
crosses and the routers it touches -- is built once, on first use, as
a slice of its source row's links and one of its destination column's,
each row and column tabled per direction when the network is built,
and every later message between the pair reuses it.
"""

from __future__ import annotations

from typing import Any

from ..common.params import NocConfig
from ..common.stats import StatsRegistry
from ..obs import events as obs_ev
from ..sim.component import Component
from ..sim.engine import Engine
from .link import Link
from .packet import Message
from .router import Router
from .topology import Mesh2D

#: One (src, dst) route: its links (a network's own link objects) in
#: path order, then its source, destination and intermediate routers.
Route = tuple[tuple[Any, ...], Router, Router, tuple[Router, ...]]
#: One row or column in one direction: its links in travel order and
#: the routers they leave.
_Chain = tuple[tuple[Any, ...], tuple[Router, ...]]


def fault_defer(net, msg: Message) -> bool:
    """Shared injection-side fault gate for both network models.

    Returns True when *msg* must not inject this cycle: either the
    (src, dst) channel is still blocked retransmitting an earlier faulted
    packet, or this packet just faulted (drop/corruption) and its
    retransmission was scheduled.  The coherence protocol relies on
    per-(src, dst) FIFO delivery (which XY routing plus in-order links
    guarantee on the fault-free network), so a retransmission must not
    let younger packets overtake: the channel blocks head-of-line until
    the retry goes through, exactly like a link-level retransmission
    buffer.  A retry re-enters at ``net._inject``, not ``net.send``, so
    the message keeps its first ``send_time`` and its latency includes
    the retransmission and the wait.  *net* needs ``injector``,
    ``_channel_clear``, ``_inject``, ``zero_load_latency`` and the
    Component scheduling interface.
    """
    clear = net._channel_clear.get((msg.src, msg.dst), 0)
    if net.now < clear:
        net.engine.schedule_at(clear, net._inject, msg)
        return True
    outcome = net.injector.noc_outcome()
    if outcome is None:
        return False
    # Modelled as detect-and-retransmit: a drop is noticed by timeout, a
    # corrupt packet by the CRC at the sink (after a full traversal).
    # Either way the sender re-injects, so the protocol stays sound and
    # the fault shows up as added latency (the wasted traversal is folded
    # into the penalty; only delivered packets count as traffic).
    net.stats.bump(f"faults.noc.{outcome}")
    penalty = net.injector.plan.noc_retry_cycles
    if outcome == "corrupted":
        penalty += net.zero_load_latency(msg.src, msg.dst, msg.size_bytes)
    net._channel_clear[(msg.src, msg.dst)] = net.now + penalty
    net.schedule(penalty, net._inject, msg)
    return True


class XYRoutes:
    """The XY routes of a mesh, as runs of its per-row and per-column
    link chains.  *links* maps each directed (tile, neighbour) pair to
    a network's own link object; *routers* holds one router per tile.
    """

    def __init__(self, mesh: Mesh2D, links: dict[tuple[int, int], Any],
                 routers: list[Router]) -> None:
        self.mesh = mesh
        self.routers = routers

        def chain(tiles: range) -> _Chain:
            """The links joining consecutive *tiles*, and the routers of
            the tiles they leave, in order."""
            return (tuple(links[pair] for pair in zip(tiles, tiles[1:])),
                    tuple(routers[t] for t in tiles[:-1]))

        # Each row's tiles eastward and westward, and each column's
        # southward and northward: an XY route is a run of its source
        # row, then a run of its destination column.
        rows, cols = mesh.rows, mesh.cols
        self._east = [chain(range(r * cols, (r + 1) * cols))
                      for r in range(rows)]
        self._west = [chain(range((r + 1) * cols - 1, r * cols - 1, -1))
                      for r in range(rows)]
        self._south = [chain(range(c, rows * cols, cols))
                       for c in range(cols)]
        self._north = [chain(range((rows - 1) * cols + c, -1, -cols))
                       for c in range(cols)]

    def route(self, src: int, dst: int) -> Route:
        """The XY route from *src* to *dst*: along the source's row to
        the destination's column, then along that column.
        ``Mesh2D.coords`` checks that both tiles exist."""
        mesh = self.mesh
        row, col = mesh.coords(src)
        dst_row, dst_col = mesh.coords(dst)
        if dst_col >= col:
            row_links, row_leave = self._east[row]
            along_row = slice(col, dst_col)
        else:
            # A westward chain starts at the row's last column.
            row_links, row_leave = self._west[row]
            along_row = slice(mesh.cols - 1 - col, mesh.cols - 1 - dst_col)
        if dst_row >= row:
            col_links, col_leave = self._south[dst_col]
            along_col = slice(row, dst_row)
        else:
            # A northward chain starts at the column's last row.
            col_links, col_leave = self._north[dst_col]
            along_col = slice(mesh.rows - 1 - row, mesh.rows - 1 - dst_row)
        routers = self.routers
        # Every router a link leaves, but the source's, is passed through.
        return (row_links[along_row] + col_links[along_col],
                routers[src], routers[dst],
                (row_leave[along_row] + col_leave[along_col])[1:])


class Network(Component):
    """Packet-level 2D-mesh interconnect."""

    def __init__(self, engine: Engine, stats: StatsRegistry,
                 config: NocConfig):
        super().__init__(engine, stats, "noc")
        self.config = config
        #: Bound by the chip when a FaultPlan is enabled (repro.faults).
        self.injector = None
        #: Per-(src, dst) cycle until which the channel is busy
        #: retransmitting a faulted packet (only touched when faults are
        #: injected; the fault-free path never reads it).
        self._channel_clear: dict[tuple[int, int], int] = {}
        self.mesh = Mesh2D(config.rows, config.cols)
        self.routers = [Router(t) for t in range(self.mesh.num_tiles)]
        self.links: dict[tuple[int, int], Link] = {}
        for t in range(self.mesh.num_tiles):
            for n in self.mesh.neighbors(t):
                self.links[(t, n)] = Link(t, n)
        #: Builds a (src, dst) pair's route; ``_routes`` keeps each one
        #: from its first use.
        self._route = XYRoutes(self.mesh, self.links, self.routers).route
        self._routes: dict[tuple[int, int], Route] = {}
        self._contention = config.model_contention
        #: From a message's tail leaving a link to the message competing
        #: for the next one: wire propagation, then the next router.
        self._hop_latency = config.link_latency + config.router_latency

    # ------------------------------------------------------------------ #
    def send(self, msg: Message) -> None:
        """Inject *msg*; its ``on_delivery`` runs at the destination."""
        msg.send_time = self.engine._now
        if msg.src == msg.dst:
            # Local tile transfer: router local-port turnaround only; not a
            # network message for Figure-7 accounting.
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
        hops = msg.hops = len(links)
        flits = self.config.flits(msg.size_bytes)
        self.stats.add_message(msg.category, flits, hops)
        source.injected += 1
        dest.ejected += 1
        for router in between:
            router.forwarded += 1
        if self.tracer.enabled:
            self.tracer.emit(self.now, self.name, obs_ev.NOC_SEND,
                             src=msg.src, dst=msg.dst, msg_kind=msg.kind,
                             flits=flits, hops=hops)
        # Injection: pay the source router pipeline, then start hopping.
        self.engine.schedule(self.config.router_latency, self._hop, msg,
                             links, 0, flits)

    # ------------------------------------------------------------------ #
    def _hop(self, msg: Message, links: tuple[Link, ...], index: int,
             flits: int) -> None:
        """Serialize *msg* onto ``links[index]``, then schedule the next
        hop, or the delivery after the last one.

        Each hop is its own event, run when the message reaches the link,
        because a link is reserved in the order messages reach it: a
        message sent later can reach a shared link earlier, and it must
        reserve the link first.  Reserving a whole path at send time
        would get that order wrong.
        """
        engine = self.engine
        now = engine._now
        link = links[index]
        # With contention a link carries one message at a time, so wait
        # for the previous tail to leave; without, it is infinitely wide.
        start = now
        if self._contention:
            if link.next_free > now:
                start = link.next_free
            link.next_free = start + flits
        link.flits_carried += flits
        if self.metrics is not None:
            # Queueing delay only: serialization and wire time excluded.
            self.metrics.histogram("noc.link_wait").record(start - now)
        at = start + flits + self._hop_latency
        index += 1
        if index == len(links):
            # Last hop: eject through the destination router.
            engine.schedule_at(at, self._deliver, msg)
        else:
            engine.schedule_at(at, self._hop, msg, links, index, flits)

    def _deliver(self, msg: Message) -> None:
        msg.arrive_time = self.engine._now
        if self.tracer.enabled:
            self.tracer.emit(self.now, self.name, obs_ev.NOC_DELIVER,
                             src=msg.src, dst=msg.dst, msg_kind=msg.kind,
                             latency=msg.latency)
        if self.metrics is not None and msg.src != msg.dst:
            self.metrics.histogram("noc.msg_latency").record(msg.latency)
        if msg.on_delivery is not None:
            msg.on_delivery(msg)

    # ------------------------------------------------------------------ #
    def zero_load_latency(self, src: int, dst: int, size_bytes: int) -> int:
        """Latency of a message on an idle network (used by tests)."""
        if src == dst:
            return self.config.router_latency
        hops = self.mesh.hops(src, dst)
        flits = self.config.flits(size_bytes)
        per_hop = flits + self.config.link_latency + self.config.router_latency
        return self.config.router_latency + hops * per_hop

    def link_utilization(self) -> dict[tuple[int, int], float]:
        """Busy fraction per link over the elapsed simulation time."""
        if self.now == 0:
            return {key: 0.0 for key in self.links}
        return {key: link.flits_carried / self.now
                for key, link in self.links.items()}
