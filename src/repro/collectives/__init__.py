"""Collective operations on the G-line fabric (reduce / broadcast /
all-reduce), the subsystem grown around the barrier network's S-CSMA
counting wires."""

from ..gline.context import total_wires
from .config import CollectiveConfig
from .controllers import MUTATIONS, StageMaster, StageSlave
from .fabric import CollectiveFabric
from .hierarchical import HierarchicalCollectiveNetwork
from .library import CollectiveImpl, GLCollective, SoftwareAllReduce
from .network import CollectiveNetwork
from .ops import (
    COMBINE_KIND, KINDS, MECHANISM, reference_reduce, result_width,
)

__all__ = [
    "COMBINE_KIND",
    "CollectiveConfig",
    "CollectiveFabric",
    "CollectiveImpl",
    "CollectiveNetwork",
    "GLCollective",
    "HierarchicalCollectiveNetwork",
    "KINDS",
    "MECHANISM",
    "MUTATIONS",
    "SoftwareAllReduce",
    "StageMaster",
    "StageSlave",
    "reference_reduce",
    "result_width",
    "total_wires",
]
