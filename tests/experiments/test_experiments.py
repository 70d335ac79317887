"""Experiment-driver tests (tiny configurations)."""

import pickle
from dataclasses import replace

import pytest

from repro.common.params import CMPConfig
from repro.exec import ParallelRunner, ResultCache, use_executor
from repro.experiments import (ComputeBarrierWorkload, compare,
                               dsw_arity_sweep, entry_overhead_sweep,
                               make_spec, matches_paper, period_sweep,
                               run_benchmark, run_fig5, run_fig6, run_fig7,
                               run_table1, run_table2)
from repro.experiments.ablations import TreeAritySpec
from repro.workloads import Kernel3Workload, SyntheticBarrierWorkload


def test_run_benchmark_smoke():
    res = run_benchmark(SyntheticBarrierWorkload(iterations=5), "gl",
                        num_cores=4)
    assert res.num_barriers() == 20


def test_compare_pairs_runs():
    comp = compare(Kernel3Workload(n=64, iterations=3), num_cores=4)
    assert comp.baseline.barrier_name == "DSW"
    assert comp.treated.barrier_name == "GL"
    assert 0 < comp.time_ratio < 1
    assert 0 <= comp.traffic_ratio < 1


def test_table1_matches_paper():
    assert matches_paper()
    out = run_table1()
    assert "32" in out and "400 cycles" in out


def test_fig5_small():
    r = run_fig5(core_counts=(2, 4), impls=("dsw", "gl"), iterations=5)
    assert r.is_ordered()
    assert r.cycles_per_barrier["gl"][4] == pytest.approx(13.0, abs=1.0)
    assert "Figure 5" in r.table()


def test_fig6_small():
    wl = {"KERN3": Kernel3Workload(n=64, iterations=5)}
    r = run_fig6(num_cores=4, workloads=wl)
    comp = r.comparisons["KERN3"]
    assert comp.normalized_treated_total < 1.0
    assert "KERN3" in r.table()
    assert "barrier" in r.stacked_table()


def test_fig7_small():
    wl = {"KERN3": Kernel3Workload(n=64, iterations=5)}
    r = run_fig7(num_cores=4, workloads=wl)
    comp = r.comparisons["KERN3"]
    assert comp.normalized_treated_total < 1.0
    assert "Figure 7" in r.table()


def test_table2_small():
    r = run_table2(num_cores=4, scale=0.02)
    assert len(r.rows) == 7
    names = r.period_ordering()
    assert set(names) == {"Synthetic", "KERN2", "KERN3", "KERN6",
                          "OCEAN", "UNSTR", "EM3D"}
    # The applications have the longest periods (the paper's key split).
    assert names[-1] in ("OCEAN", "UNSTR")
    assert "Table 2" in r.table()


def test_period_sweep_shows_diminishing_benefit():
    r = period_sweep(work_grains=(0, 5_000), num_cores=4, iterations=5)
    ratios = [row[3] for row in r.rows]
    # More work between barriers -> GL's advantage shrinks (ratio -> 1).
    assert ratios[0] < ratios[1] <= 1.05


def test_entry_overhead_sweep_monotone():
    r = entry_overhead_sweep(overheads=(0, 8), num_cores=4, iterations=10)
    per_barrier = [row[1] for row in r.rows]
    assert per_barrier[0] < per_barrier[1]
    assert per_barrier[0] == pytest.approx(5.0, abs=0.5)  # 1 write + 4 net


def test_compute_barrier_workload():
    from helpers import make_chip
    chip = make_chip(2, "gl")
    res = chip.run(ComputeBarrierWorkload(work_cycles=100, iterations=3))
    assert res.num_barriers() == 3
    assert res.total_cycles >= 300


def test_dsw_arity_sweep_is_one_cached_batch(tmp_path):
    runner = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
    with use_executor(runner):
        cold = dsw_arity_sweep(arities=(2, 4), num_cores=4, iterations=2)
        warm = dsw_arity_sweep(arities=(2, 4), num_cores=4, iterations=2)
    assert (runner.misses, runner.hits) == (2, 2)
    assert warm.rows == cold.rows


def test_tree_arity_spec_keys_apart_from_plain_dsw():
    """The swapped tree sits at other addresses than the chip's own, so
    even arity 2 is not the plain ``dsw`` run."""
    workload = SyntheticBarrierWorkload(iterations=2)
    config = CMPConfig.for_cores(4)
    spec = TreeAritySpec(workload, "dsw", config, arity=2)
    plain = make_spec(workload, "dsw", 4, config=config)
    assert spec.key() != plain.key()
    assert spec.key() != replace(spec, arity=4).key()
    assert pickle.loads(pickle.dumps(spec)).key() == spec.key()
