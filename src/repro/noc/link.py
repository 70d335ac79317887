"""Point-to-point mesh link with serialization contention.

A link carries one flit per cycle.  Contention is modelled by tracking the
cycle at which the link next becomes free: a message arriving earlier waits.
This captures the first-order queueing behaviour of a wormhole mesh (bursts
of coherence traffic serialize) without simulating individual flit buffers.
The serialization rule itself is applied by
:meth:`repro.noc.network.Network._hop`; a link only holds the state.
"""

from __future__ import annotations


class Link:
    """Unidirectional link between two adjacent tiles."""

    __slots__ = ("src", "dst", "next_free", "flits_carried")

    def __init__(self, src: int, dst: int):
        self.src = src
        self.dst = dst
        #: First cycle at which a new message may start serializing.
        self.next_free = 0
        #: Flits sent over this link; at one flit per cycle, also the
        #: cycles it spent transmitting (utilization numerator).
        self.flits_carried = 0
