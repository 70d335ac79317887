"""Miss Status Holding Registers.

One outstanding transaction per line; later accesses to the same line merge
as waiters.  A waiter records the access level it needs ('S' for loads, 'M'
for stores/atomics); on fill, waiters whose need is satisfied by the granted
state complete, the rest trigger a follow-up upgrade request.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass(slots=True)
class Waiter:
    need: str                      # 'S' or 'M'
    #: Resumes the stalled operation as ``callback(*args)``.
    callback: Callable[..., None]
    args: tuple[Any, ...] = ()


@dataclass(slots=True)
class MshrEntry:
    line_addr: int
    requested: str                 # level requested from the home ('S'/'M')
    waiters: list[Waiter] = field(default_factory=list)
    issue_time: int = 0


class MshrTable:
    """MSHR file for one L1 (unbounded entries, realistic merge logic)."""

    def __init__(self) -> None:
        self._entries: dict[int, MshrEntry] = {}
        self.allocations = 0
        self.merges = 0

    def get(self, line_addr: int) -> MshrEntry | None:
        return self._entries.get(line_addr)

    def allocate(self, line_addr: int, requested: str,
                 issue_time: int) -> MshrEntry:
        assert line_addr not in self._entries, "line already pending"
        entry = MshrEntry(line_addr, requested, issue_time=issue_time)
        self._entries[line_addr] = entry
        self.allocations += 1
        return entry

    def merge(self, line_addr: int, waiter: Waiter) -> None:
        self._entries[line_addr].waiters.append(waiter)
        self.merges += 1

    def complete(self, line_addr: int) -> MshrEntry:
        """Remove and return the entry (fill arrived)."""
        return self._entries.pop(line_addr)

    def pending(self) -> int:
        return len(self._entries)

    def outstanding_lines(self) -> list[int]:
        return sorted(self._entries)
