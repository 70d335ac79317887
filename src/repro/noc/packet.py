"""Network message representation."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

from ..common.stats import MsgCat

_msg_ids = itertools.count()


@dataclass(slots=True)
class Message:
    """One message travelling on the main data network.

    ``kind`` is the protocol-level opcode (e.g. ``GetS``, ``Data``, ``Inv``);
    ``category`` is the Figure-7 accounting bucket.  ``on_delivery`` is
    invoked at the destination tile once the whole message has arrived.
    """

    src: int
    dst: int
    kind: str
    category: MsgCat
    size_bytes: int
    payload: Any = None
    on_delivery: Callable[["Message"], None] | None = None
    msg_id: int = field(default_factory=_msg_ids.__next__)
    #: Filled in by the network when the sender hands the message over
    #: (a fault retransmission keeps it).
    send_time: int = -1
    #: Filled in by the network at delivery time.
    arrive_time: int = -1
    hops: int = 0

    @property
    def latency(self) -> int:
        return self.arrive_time - self.send_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Msg#{self.msg_id} {self.kind} {self.src}->{self.dst} "
                f"{self.category.value}>")
