"""Configuration validation tests (Table 1)."""

import pytest

from repro.common.errors import ConfigError
from repro.common.params import (CacheConfig, CMPConfig, CoreConfig,
                                 GLineConfig, NocConfig, mesh_dims)
from repro.common.stats import StatsRegistry
from repro.gline import (GLineBarrierNetwork, HierarchicalGLineBarrier,
                         build_sync_contexts, total_wires)
from repro.sim.engine import Engine


# ---------------------------------------------------------------------- #
# mesh_dims
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("n,expected", [
    (1, (1, 1)), (2, (1, 2)), (4, (2, 2)), (8, (2, 4)), (16, (4, 4)),
    (32, (4, 8)), (6, (2, 3)), (12, (3, 4)), (49, (7, 7)), (7, (1, 7)),
])
def test_mesh_dims(n, expected):
    assert mesh_dims(n) == expected


def test_mesh_dims_rejects_nonpositive():
    with pytest.raises(ConfigError):
        mesh_dims(0)


# ---------------------------------------------------------------------- #
# CacheConfig
# ---------------------------------------------------------------------- #
def test_l1_defaults_match_table1():
    cfg = CMPConfig()
    assert cfg.l1.size_bytes == 32 * 1024
    assert cfg.l1.assoc == 4
    assert cfg.l1.latency == 1
    assert cfg.l1.num_sets == 128
    assert cfg.l2.size_bytes == 256 * 1024
    assert cfg.l2.total_latency == 8  # the paper's "6+2 cycles"
    assert cfg.memory_latency == 400
    assert cfg.num_cores == 32
    assert (cfg.noc.rows, cfg.noc.cols) == (4, 8)


def test_cache_geometry_validation():
    with pytest.raises(ConfigError):
        CacheConfig(size_bytes=0, assoc=4)
    with pytest.raises(ConfigError):
        CacheConfig(size_bytes=1024, assoc=4, line_bytes=48)
    with pytest.raises(ConfigError):
        CacheConfig(size_bytes=1000, assoc=3, line_bytes=64)


# ---------------------------------------------------------------------- #
# NocConfig
# ---------------------------------------------------------------------- #
def test_noc_flits():
    noc = NocConfig(rows=2, cols=2)
    assert noc.flits(8) == 1
    assert noc.flits(72) == 1    # 75-byte links carry a line in one flit
    assert noc.flits(76) == 2
    assert noc.flits(1) == 1


def test_noc_validation():
    with pytest.raises(ConfigError):
        NocConfig(rows=0, cols=4)
    with pytest.raises(ConfigError):
        NocConfig(rows=2, cols=2, link_latency=0)


# ---------------------------------------------------------------------- #
# GLineConfig
# ---------------------------------------------------------------------- #
def wires(rows, cols, g=GLineConfig()):
    """G-lines of the barrier contexts *g* builds on a rows x cols mesh."""
    return total_wires(build_sync_contexts(
        GLineBarrierNetwork, HierarchicalGLineBarrier, Engine(),
        StatsRegistry(rows * cols), rows, cols, g, name="glnet",
        count=g.num_barriers))


def test_gline_wire_budget_matches_paper():
    # The paper: 2*(sqrt(N)+1) G-lines per barrier; 10 for a 16-core CMP.
    assert wires(4, 4) == 10
    assert wires(2, 2) == 6
    assert wires(7, 7) == 16


def test_gline_wires_degenerate_meshes():
    assert wires(1, 4) == 2   # one row: no vertical pair
    assert wires(4, 1) == 2   # one column: only the vertical pair
    assert wires(1, 1) == 0


def test_gline_wires_scale_with_contexts():
    assert wires(4, 4, GLineConfig(num_barriers=3)) == 30


def test_gline_validation():
    with pytest.raises(ConfigError):
        GLineConfig(line_latency=0)
    with pytest.raises(ConfigError):
        GLineConfig(num_barriers=0)


# ---------------------------------------------------------------------- #
# CMPConfig
# ---------------------------------------------------------------------- #
def test_for_cores_builds_matching_mesh():
    cfg = CMPConfig.for_cores(16)
    assert cfg.num_cores == 16
    assert cfg.noc.num_tiles == 16


def test_mismatched_mesh_rejected():
    with pytest.raises(ConfigError):
        CMPConfig(num_cores=8, noc=NocConfig(rows=2, cols=2))


def test_line_size_consistency_enforced():
    with pytest.raises(ConfigError):
        CMPConfig(num_cores=32, line_bytes=128)


def test_with_override():
    cfg = CMPConfig().with_(memory_latency=100)
    assert cfg.memory_latency == 100
    assert cfg.num_cores == 32


def test_legacy_dict_with_sim_backend_loads():
    """Cache entries and journals written while the engine was
    selectable carry ``sim_backend``; they still load, on the one
    engine."""
    legacy = CMPConfig.for_cores(8).to_dict()
    assert "sim_backend" not in legacy
    legacy["sim_backend"] = "batched"
    cfg = CMPConfig.from_dict(legacy)
    assert cfg == CMPConfig.for_cores(8)
    assert cfg.sim_backend == "heap"


def test_sim_backend_is_not_settable():
    with pytest.raises(TypeError):
        CMPConfig().with_(sim_backend="heap")
    with pytest.raises(TypeError):
        CMPConfig(sim_backend="heap")


def test_table1_rendering():
    rows = dict(CMPConfig().table1())
    assert rows["Number of cores"] == "32"
    assert rows["Cache line size"] == "64 Bytes"
    assert rows["Memory access time"] == "400 cycles"
    assert rows["L2 Cache (per core)"] == "256KB, 4-way, 6+2 cycles"


def test_core_config_validation():
    with pytest.raises(ConfigError):
        CoreConfig(freq_ghz=0)
    with pytest.raises(ConfigError):
        CoreConfig(issue_width=0)
