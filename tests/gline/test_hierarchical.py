"""Hierarchical G-line barrier tests (the >7x7 extension)."""

import pytest

from repro.chip.cmp import CMP
from repro.common.errors import CapacityError, ConfigError
from repro.common.params import CMPConfig, GLineConfig
from repro.common.stats import StatsRegistry
from repro.gline import partition
from repro.gline.hierarchical import HierarchicalGLineBarrier
from repro.obs import MetricsRegistry, Observability
from repro.sim.engine import Engine
from repro.workloads.synthetic import SyntheticBarrierWorkload


def build(rows, cols):
    engine = Engine()
    stats = StatsRegistry(rows * cols)
    net = HierarchicalGLineBarrier(engine, stats, rows, cols,
                                   GLineConfig())
    return engine, net


def arrive_all(engine, net, times=None):
    releases = {}
    n = net.num_cores
    times = times or [0] * n
    for cid, t in enumerate(times):
        engine.schedule_at(
            t, lambda c=cid: net.arrive(
                c, lambda c=c: releases.__setitem__(c, engine.now)))
    engine.run()
    return [releases.get(c) for c in range(n)]


# ---------------------------------------------------------------------- #
def test_partition_even_and_uneven():
    assert partition(14, 7) == [(0, 7), (7, 7)]
    assert partition(10, 7) == [(0, 5), (5, 5)]
    assert partition(7, 7) == [(0, 7)]
    assert partition(15, 7) == [(0, 5), (5, 5), (10, 5)]
    with pytest.raises(ConfigError):
        partition(0, 7)


def test_8x8_barrier_completes():
    engine, net = build(8, 8)
    releases = arrive_all(engine, net)
    assert all(r is not None for r in releases)
    assert len(set(releases)) == 1  # synchronized release
    assert net.barriers_completed == 1


def test_8x8_cluster_structure():
    _, net = build(8, 8)
    assert (net.cluster_rows, net.cluster_cols) == (2, 2)
    assert len(net.clusters) == 4
    for cluster in net.clusters:
        assert cluster.num_cores == 16


def test_14x14_structure_and_completion():
    engine, net = build(14, 14)
    assert len(net.clusters) == 4
    assert all(c.num_cores == 49 for c in net.clusters)
    releases = arrive_all(engine, net)
    assert all(r is not None for r in releases)


def test_latency_between_flat_and_software():
    """Hierarchical latency: more than the flat 4 cycles, far less than a
    software barrier -- and bounded by gather+link+top+release."""
    engine, net = build(8, 8)
    arrive_all(engine, net)
    latency = net.samples[0].latency_after_last_arrival
    assert 4 < latency <= 16


def test_no_release_before_all_clusters_arrive():
    engine, net = build(8, 8)
    released = []
    for cid in range(63):
        net.arrive(cid, lambda c=cid: released.append(c))
    engine.run()
    assert released == []  # one core missing: nobody may pass
    net.arrive(63, lambda: released.append(63))
    engine.run()
    assert len(released) == 64


def test_repeated_episodes():
    engine, net = build(8, 8)
    n = net.num_cores
    state = {"left": n, "round": 0}
    episodes = 5

    def released():
        state["left"] -= 1
        if state["left"] == 0 and state["round"] < episodes - 1:
            state["round"] += 1
            state["left"] = n
            for cid in range(n):
                net.arrive(cid, released)

    for cid in range(n):
        net.arrive(cid, released)
    engine.run()
    assert net.barriers_completed == episodes
    latencies = {s.latency_after_last_arrival for s in net.samples}
    assert len(latencies) == 1  # deterministic steady-state latency


def test_wire_budget_sums_clusters_and_top():
    _, net = build(8, 8)
    # 4 clusters of 4x4 (10 wires each) + a 2x2 top level (6 wires).
    assert net.num_glines == 4 * 10 + 6


def test_staggered_arrivals():
    engine, net = build(8, 8)
    times = [(cid * 37) % 500 for cid in range(64)]
    releases = arrive_all(engine, net, times)
    assert len(set(releases)) == 1
    assert releases[0] > max(times)


def test_too_large_for_two_levels_rejected():
    with pytest.raises(CapacityError):
        build(50, 7)


# ---------------------------------------------------------------------- #
# Chip-level counters of a hierarchical barrier
# ---------------------------------------------------------------------- #
def _chip64(obs=None):
    chip = CMP(CMPConfig.for_cores(64), barrier="gl", obs=obs)
    net = chip.barrier_impl.networks[0]
    assert isinstance(net, HierarchicalGLineBarrier)
    return chip, net


def test_chip_counts_each_hierarchical_episode_once():
    # 2x2 clusters and a top level complete once each per barrier; the
    # chip counts the barrier once, in stats and in metrics.
    chip, _net = _chip64(Observability(metrics=MetricsRegistry()))
    result = chip.run(SyntheticBarrierWorkload(iterations=2))
    assert result.num_barriers() == 8
    assert chip.stats.counters["gline.barriers"] == 8
    assert result.metrics["counters"]["gline.episodes"] == 8
    assert result.metrics["histograms"]["gline.episode_latency"]["count"] \
        == 8


def test_chip_counts_every_wire_toggle_at_every_level():
    chip, net = _chip64()
    lines = [line for level in [*net.clusters, net.top]
             for line in level.lines]
    warmup_stats = chip.stats
    chip.run_with_warmup(SyntheticBarrierWorkload(iterations=1),
                         SyntheticBarrierWorkload(iterations=2))
    # Toggles before the stats reset stay in the warm-up registry; the
    # measured run's land in the new one.
    assert chip.stats.gline_toggles > warmup_stats.gline_toggles > 0
    assert warmup_stats.gline_toggles + chip.stats.gline_toggles == \
        sum(line.toggles for line in lines)
