"""The G-line barrier network: the paper's primary contribution."""

from .barrier import GLBarrier
from .context import (
    Hierarchy, SyncContext, build_sync_contexts, partition, submesh_core_ids,
    total_wires,
)
from .gline import GLine
from .hierarchical import HierarchicalGLineBarrier
from .network import GLineBarrierNetwork

__all__ = [
    "GLBarrier",
    "Hierarchy", "SyncContext", "build_sync_contexts", "partition",
    "submesh_core_ids", "total_wires",
    "GLine",
    "HierarchicalGLineBarrier",
    "GLineBarrierNetwork",
]
