"""Barrier-episode accounting tests."""

import pytest

from repro.common.errors import SimulationError
from repro.common.stats import StatsRegistry
from repro.sync.accounting import BarrierAccounting


def test_episode_lifecycle():
    stats = StatsRegistry(2)
    acct = BarrierAccounting(stats, num_cores=2)
    e0 = acct.arrive(0, 0, now=10)
    e1 = acct.arrive(1, 0, now=25)
    assert e0 == e1 == 0
    acct.depart(0, 0, e0, now=30)
    assert stats.num_barriers() == 0  # not complete yet
    acct.depart(1, 0, e1, now=31)
    assert stats.num_barriers() == 1
    s = stats.barriers[0]
    assert (s.first_arrival, s.last_arrival, s.release) == (10, 25, 31)
    assert acct.open_episodes() == 0


def test_arrivals_recorded_ahead_of_their_cycle():
    # A straggler's arrival is recorded when it issues its BarrierOp,
    # stamped with the later cycle its barrier frame first runs, so a
    # punctual core's arrival can be recorded after it with an earlier
    # stamp.  The first arrival is the earliest stamp, and S2 sums each
    # core's wait for the last one.
    stats = StatsRegistry(3)
    acct = BarrierAccounting(stats, num_cores=3)
    episodes = [acct.arrive(0, 0, now=60), acct.arrive(1, 0, now=20),
                acct.arrive(2, 0, now=35)]
    for core, ep in enumerate(episodes):
        acct.depart(core, 0, ep, now=70 + core)
    s = stats.barriers[0]
    assert (s.first_arrival, s.last_arrival, s.release) == (20, 60, 72)
    assert stats.counters["barrier.s2_wait_cycles"] == 0 + 40 + 25
    assert stats.counters["barrier.sync_cycles"] == 10 + 11 + 12


def test_per_core_episode_indexing():
    stats = StatsRegistry(2)
    acct = BarrierAccounting(stats, num_cores=2)
    assert acct.arrive(0, 0, 1) == 0
    acct.depart(0, 0, 0, 2)  # core 0 done with ep 0 (core 1 still out)
    assert acct.arrive(0, 0, 3) == 1  # core 0 moves to ep 1
    assert acct.arrive(1, 0, 4) == 0  # core 1 joins ep 0
    acct.depart(1, 0, 0, 5)
    assert stats.num_barriers() == 1


def test_contexts_are_independent():
    stats = StatsRegistry(2)
    acct = BarrierAccounting(stats, num_cores=2)
    assert acct.arrive(0, barrier_id=0, now=1) == 0
    assert acct.arrive(0, barrier_id=1, now=2) == 0
    assert acct.open_episodes() == 2


def test_over_arrival_detected():
    stats = StatsRegistry(2)
    acct = BarrierAccounting(stats, num_cores=1)
    acct.arrive(0, 0, 1)
    acct.arrive(0, 0, 2)  # core 0's second episode: fine
    # Forge an impossible third arrival into episode 0.
    acct._core_count[(0, 0)] = 0
    with pytest.raises(SimulationError):
        acct.arrive(0, 0, 3)
