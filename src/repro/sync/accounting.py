"""Chip-level barrier-episode accounting.

Records, uniformly across hardware and software implementations, when each
core *enters* a barrier operation (arrival, start of S1) and when it
*leaves* it (release complete).  Once every participating core has left
episode *k*, a :class:`~repro.common.stats.BarrierSample` is pushed to the
run's StatsRegistry.  These samples drive Figure 5 (average time per
barrier) and Table 2 (#barriers, barrier period).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.errors import SimulationError
from ..common.stats import BarrierSample, StatsRegistry


@dataclass(slots=True)
class _Episode:
    first_arrival: int
    last_arrival: int
    arrived: int = 0
    departed: int = 0
    release: int = 0
    #: Sum of the per-core arrival cycles (for the S2 decomposition).
    arrival_sum: int = 0
    #: Sum over cores of (departure - last_arrival), accumulated as cores
    #: depart (the S3-ish completion cost each core pays).
    completion_cycles: int = 0


class BarrierAccounting:
    """Per-context episode tracker shared by all cores of a chip."""

    def __init__(self, stats: StatsRegistry, num_cores: int):
        self.stats = stats
        self.num_cores = num_cores
        #: (barrier_id, episode_index) -> _Episode
        self._episodes: dict[tuple[int, int], _Episode] = {}
        #: (barrier_id, core) -> how many episodes this core has entered.
        self._core_count: dict[tuple[int, int], int] = {}
        self.completed = 0

    # ------------------------------------------------------------------ #
    def arrive(self, core_id: int, barrier_id: int, now: int) -> int:
        """Core enters the barrier at cycle *now*; returns the episode
        index.  A straggler's arrival may be recorded before its cycle,
        so the first arrival is the minimum, not the first recorded."""
        ckey = (barrier_id, core_id)
        episode_idx = self._core_count.get(ckey, 0)
        self._core_count[ckey] = episode_idx + 1
        ekey = (barrier_id, episode_idx)
        ep = self._episodes.get(ekey)
        if ep is None:
            ep = self._episodes[ekey] = _Episode(first_arrival=now,
                                                 last_arrival=now)
        ep.arrived += 1
        if now < ep.first_arrival:
            ep.first_arrival = now
        if now > ep.last_arrival:
            ep.last_arrival = now
        ep.arrival_sum += now
        if ep.arrived > self.num_cores:
            raise SimulationError(
                f"barrier {barrier_id} episode {episode_idx}: more arrivals "
                f"than cores -- mismatched barrier counts across threads?")
        self.stats.bump("barrier.arrivals")
        return episode_idx

    def depart(self, core_id: int, barrier_id: int, episode_idx: int,
               now: int) -> None:
        """Core finishes the barrier operation (released)."""
        ekey = (barrier_id, episode_idx)
        ep = self._episodes[ekey]
        ep.departed += 1
        ep.release = max(ep.release, now)
        ep.completion_cycles += now - ep.last_arrival
        if ep.departed == self.num_cores:
            self.completed += 1
            # Stage decomposition (the paper's S1/S2/S3 analysis):
            # S2 ("busy-wait for the remaining cores") is the sum over
            # cores of (last arrival - own arrival); the remainder of each
            # core's episode time is the synchronization mechanism itself
            # (notification + release propagation).
            s2 = ep.arrived * ep.last_arrival - ep.arrival_sum
            self.stats.bump("barrier.s2_wait_cycles", s2)
            self.stats.bump("barrier.sync_cycles", ep.completion_cycles)
            self.stats.add_barrier(BarrierSample(
                barrier_id=barrier_id,
                first_arrival=ep.first_arrival,
                last_arrival=ep.last_arrival,
                release=ep.release))
            del self._episodes[ekey]

    # ------------------------------------------------------------------ #
    def open_episodes(self) -> int:
        """Episodes some core has entered but not every core has left."""
        return len(self._episodes)
