"""The hop network against a reference hop model.

:class:`ReferenceNetwork` states the hop model in its plainest form: on
every hop it walks the list path ``Mesh2D.route`` returns, looks the
link up by ``(here, next)`` and reserves it with ``occupy``.
:class:`Network` precomputes routes and inlines the reservation; random
traffic (same-cycle bursts so links contend, local and remote pairs,
1-4 flit messages, contention on and off) must produce the same event
order, delivery cycles, link state, router counters and message
statistics on both.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.params import NocConfig
from repro.common.stats import MsgCat, StatsRegistry
from repro.noc.network import Network
from repro.noc.packet import Message
from repro.noc.router import Router
from repro.noc.topology import Mesh2D
from repro.sim.component import Component
from repro.sim.engine import Engine


class ReferenceLink:
    __slots__ = ("next_free", "flits_carried")

    def __init__(self):
        self.next_free = 0
        self.flits_carried = 0

    def occupy(self, now, flits, contention):
        """Reserve the link for *flits* cycles from no earlier than
        *now*; returns the cycle the last flit leaves it."""
        start = max(now, self.next_free) if contention else now
        end = start + flits
        if contention:
            self.next_free = end
        self.flits_carried += flits
        return end


class ReferenceNetwork(Component):
    """Per-hop latency plus link serialization, one event per hop."""

    def __init__(self, engine, stats, config):
        super().__init__(engine, stats, "noc")
        self.config = config
        self.mesh = Mesh2D(config.rows, config.cols)
        self.routers = [Router(t) for t in range(self.mesh.num_tiles)]
        self.links = {(t, n): ReferenceLink()
                      for t in range(self.mesh.num_tiles)
                      for n in self.mesh.neighbors(t)}

    def send(self, msg):
        msg.send_time = self.now
        if msg.src == msg.dst:
            self.stats.bump("noc.local_deliveries")
            self.schedule(self.config.router_latency, self._deliver, msg)
            return
        path = self.mesh.route(msg.src, msg.dst)
        msg.hops = len(path) - 1
        flits = self.config.flits(msg.size_bytes)
        self.stats.add_message(msg.category, flits, msg.hops)
        self.routers[msg.src].injected += 1
        self.routers[msg.dst].ejected += 1
        for mid in path[1:-1]:
            self.routers[mid].forwarded += 1
        self.schedule(self.config.router_latency, self._hop, msg, path, 0,
                      flits)

    def _hop(self, msg, path, index, flits):
        link = self.links[(path[index], path[index + 1])]
        serialized_end = link.occupy(self.now, flits,
                                     self.config.model_contention)
        arrival = serialized_end + self.config.link_latency
        if index + 2 == len(path):
            self.engine.schedule_at(arrival + self.config.router_latency,
                                    self._deliver, msg)
        else:
            self.engine.schedule_at(arrival + self.config.router_latency,
                                    self._hop, msg, path, index + 1, flits)

    def _deliver(self, msg):
        msg.arrive_time = self.now
        if msg.on_delivery is not None:
            msg.on_delivery(msg)


#: One message: (send cycle, src, dst, flits).  Send cycles span a few
#: cycles only, so bursts share a cycle and contend for links.
_traffic = st.lists(st.tuples(st.integers(0, 6), st.integers(0, 19),
                              st.integers(0, 19), st.integers(1, 4)),
                    min_size=1, max_size=40)


def _run(network_class, rows, cols, contention, traffic):
    engine = Engine()
    engine.order_log = []
    stats = StatsRegistry(rows * cols)
    config = NocConfig(rows=rows, cols=cols, link_width_bytes=8,
                       model_contention=contention)
    net = network_class(engine, stats, config)
    tiles = rows * cols
    messages = []
    for at, src, dst, flits in traffic:
        msg = Message(src=src % tiles, dst=dst % tiles, kind="GetS",
                      category=MsgCat.REQUEST, size_bytes=8 * flits)
        messages.append(msg)
        engine.schedule_at(at, net.send, msg)
    engine.run()
    return {
        # Method names only: the two classes' qualnames differ.
        "order": [(t, prio, seq, name.rsplit(".", 1)[-1])
                  for t, prio, seq, name in engine.order_log],
        "messages": [(m.send_time, m.arrive_time, m.hops)
                     for m in messages],
        "links": {key: (link.next_free, link.flits_carried)
                  for key, link in net.links.items()},
        "routers": [(r.injected, r.ejected, r.forwarded)
                    for r in net.routers],
        "stats": (dict(stats.messages), dict(stats.flits),
                  dict(stats.hop_flits), dict(stats.counters)),
    }


@settings(max_examples=150, deadline=None)
@given(rows=st.integers(1, 4), cols=st.integers(1, 5),
       contention=st.booleans(), traffic=_traffic)
def test_network_matches_reference_hop_model(rows, cols, contention,
                                             traffic):
    got = _run(Network, rows, cols, contention, traffic)
    want = _run(ReferenceNetwork, rows, cols, contention, traffic)
    assert got == want


def test_link_serialization_waits_for_previous_tail():
    """A link is reserved in the order messages reach it, each message
    waiting for the previous one's tail: 4 flits at cycle 10 leave at 14,
    2 more flits reaching the link at 10 leave at 16, 1 flit at 100
    leaves at 101."""
    traffic = [(7, 0, 1, 4), (7, 0, 1, 2), (97, 0, 1, 1)]
    got = _run(Network, 1, 2, True, traffic)
    assert got == _run(ReferenceNetwork, 1, 2, True, traffic)
    # Injection pays the 3-cycle router, so the sends at 7 reach the link
    # at 10; delivery adds the 1-cycle wire and the 3-cycle router.
    assert [arrive for _s, arrive, _h in got["messages"]] == [18, 20, 105]
    assert got["links"][(0, 1)] == (101, 7)
