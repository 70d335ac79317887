"""Memory hierarchy: functional memory, caches, directory coherence."""

from .address import WORD_BYTES, AddressMap, Allocator
from .cache import CacheArray, CacheLineEntry, MESI, Victim
from .directory import DirState, HomeController
from .funcmem import FunctionalMemory
from .l1 import L1Cache
from .memory import MemoryController
from .mshr import MshrEntry, MshrTable, Waiter
from .protocol import ALL_KINDS, kind_table

__all__ = [
    "WORD_BYTES", "AddressMap", "Allocator",
    "CacheArray", "CacheLineEntry", "MESI", "Victim",
    "DirState", "HomeController",
    "FunctionalMemory",
    "L1Cache",
    "MemoryController",
    "MshrEntry", "MshrTable", "Waiter",
    "ALL_KINDS", "kind_table",
]
