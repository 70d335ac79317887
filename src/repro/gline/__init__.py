"""The G-line barrier network: the paper's primary contribution."""

from .barrier import GLBarrier
from .context import Hierarchy, SyncContext, partition, total_wires
from .gline import GLine
from .hierarchical import HierarchicalGLineBarrier
from .multibarrier import build_contexts, build_submesh_context
from .network import GLineBarrierNetwork
from .timemux import build_time_multiplexed

__all__ = [
    "GLBarrier",
    "Hierarchy", "SyncContext", "partition", "total_wires",
    "GLine",
    "HierarchicalGLineBarrier",
    "build_contexts", "build_submesh_context",
    "GLineBarrierNetwork",
    "build_time_multiplexed",
]
