"""Coherence protocol message vocabulary.

The protocol is a home-serialized MESI directory protocol (DESIGN.md §5.3):

* L1 -> home requests: ``GetS`` (read), ``GetM`` (write/upgrade),
  ``PutM`` (dirty/exclusive write-back).
* home -> L1 grants:  ``DataS`` (shared copy), ``DataE`` (exclusive copy),
  ``GrantM`` (ownership without data, for upgrades).
* home -> L1 probes:  ``Inv`` (invalidate a sharer), ``FwdGetS`` (downgrade
  the owner), ``FwdInv`` (invalidate the owner), ``PutAck`` (write-back
  acknowledged).
* L1 -> home responses: ``InvAck``, ``WbData`` (owner's data).

Figure-7 accounting: requests are *Request*; data/ownership grants are
*Reply*; everything else (probes, acks, write-backs) is *Coherence*.
"""

from __future__ import annotations

from functools import cache
from types import MappingProxyType
from typing import Mapping

from ..common.params import NocConfig
from ..common.stats import MsgCat

# kind -> (category, is_data_sized)
_KINDS: dict[str, tuple[MsgCat, bool]] = {
    "GetS": (MsgCat.REQUEST, False),
    "GetM": (MsgCat.REQUEST, False),
    "DataS": (MsgCat.REPLY, True),
    "DataE": (MsgCat.REPLY, True),
    "GrantM": (MsgCat.REPLY, False),
    "Inv": (MsgCat.COHERENCE, False),
    "InvAck": (MsgCat.COHERENCE, False),
    "FwdGetS": (MsgCat.COHERENCE, False),
    "FwdInv": (MsgCat.COHERENCE, False),
    "WbData": (MsgCat.COHERENCE, True),
    "PutM": (MsgCat.COHERENCE, True),
    "PutAck": (MsgCat.COHERENCE, False),
}


@cache
def kind_table(noc: NocConfig) -> Mapping[str, tuple[MsgCat, int]]:
    """``kind -> (category, size in bytes)`` for every protocol message
    on a network configured by *noc*: built once per configuration and
    shared, read-only, by every controller."""
    return MappingProxyType({
        kind: (cat, noc.data_msg_bytes if is_data else noc.ctrl_msg_bytes)
        for kind, (cat, is_data) in _KINDS.items()})


ALL_KINDS = tuple(_KINDS)
