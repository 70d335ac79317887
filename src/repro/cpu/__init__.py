"""Core model and operation ISA."""

from .core import Core, HWArrive
from .isa import (
    AcquireLock,
    AtomicRMW,
    BarrierOp,
    Compute,
    FetchAdd,
    Load,
    ReleaseLock,
    SpinUntil,
    Store,
    Swap,
    TestAndSet,
)

__all__ = [
    "Core", "HWArrive",
    "AcquireLock", "AtomicRMW", "BarrierOp", "Compute", "FetchAdd", "Load",
    "ReleaseLock", "SpinUntil", "Store", "Swap", "TestAndSet",
]
