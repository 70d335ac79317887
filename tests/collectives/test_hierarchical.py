"""Two-level collective fabric for meshes beyond the S-CSMA bound."""

import random

import pytest

from repro.chip.cmp import CMP
from repro.collectives import ops
from repro.collectives.config import CollectiveConfig
from repro.collectives.hierarchical import HierarchicalCollectiveNetwork
from repro.common.params import CMPConfig, GLineConfig
from repro.common.stats import StatsRegistry
from repro.obs import MetricsRegistry, Observability
from repro.sim.engine import Engine
from repro.workloads.collective import CollectiveAllReduceWorkload


def make_hier(rows, cols, width=4, **cc_kwargs):
    engine = Engine()
    stats = StatsRegistry(rows * cols)
    cc = CollectiveConfig(enabled=True, value_width=width, **cc_kwargs)
    net = HierarchicalCollectiveNetwork(engine, stats, rows, cols,
                                        GLineConfig(), cc)
    return engine, net


def run_episode(engine, net, kind, values, spread=15, seed=0):
    rng = random.Random(seed)
    got = {}
    for cid, value in enumerate(values):
        engine.schedule(rng.randrange(spread), net.arrive, cid, kind,
                        value, (lambda v=None, c=cid:
                                got.__setitem__(c, v)))
    engine.run()
    return got


@pytest.mark.parametrize("kind", ops.KINDS)
def test_8x8_delivers_reference(kind):
    width = 6
    engine, net = make_hier(8, 8, width)
    rng = random.Random(11)
    for episode in range(2):
        values = [rng.randrange(1 << width) for _ in range(64)]
        got = run_episode(engine, net, kind, values, seed=episode)
        ref = ops.reference_reduce(kind, values, width)
        assert got == {c: ref for c in range(64)}, (kind, episode)
    assert net.fully_idle()


def test_ragged_mesh():
    # 9x16 exceeds the bound on both axes and tiles unevenly.
    engine, net = make_hier(9, 16, width=4)
    values = [(i * 13 + 5) % 16 for i in range(144)]
    got = run_episode(engine, net, "sum", values)
    assert set(got.values()) == {sum(values)}


def test_cluster_partition_covers_mesh():
    _, net = make_hier(8, 8)
    cores = set()
    for cluster in net.clusters:
        ids = set(cluster.core_ids)
        assert cores.isdisjoint(ids)
        cores |= ids
    assert len(cores) == 64


def test_chip_counts_each_hierarchical_episode_once():
    # 8x8: 2x2 clusters finish every episode too, but only the top
    # level's completion is a chip episode.
    cfg = CMPConfig.for_cores(64).with_(collectives=CollectiveConfig(
        enabled=True, value_width=8, integrity="echo"))
    chip = CMP(cfg, barrier="gl",
               obs=Observability(metrics=MetricsRegistry()))
    workload = CollectiveAllReduceWorkload(iterations=7)
    result = chip.run(workload)
    workload.verify(chip)
    net = chip.collective_impl.networks[0]
    assert isinstance(net, HierarchicalCollectiveNetwork)
    assert net.collectives_completed == 7
    assert chip.stats.counters["collectives.completed"] == 7
    assert result.metrics["counters"]["collectives.episodes"] == 7
    lines = [line for level in [*net.clusters, net.top]
             for line in level.lines]
    assert chip.stats.gline_toggles == sum(line.toggles for line in lines)
