"""Executor metric streams and the RunResult metrics round trip."""

from repro.chip.results import RunResult
from repro.exec import ParallelRunner, ResultCache, RunSpec
from repro.workloads.synthetic import SyntheticBarrierWorkload


def spec(iterations=1):
    return RunSpec.make(SyntheticBarrierWorkload(iterations=iterations),
                        "gl", num_cores=4)


def test_runner_publishes_hit_miss_counters(tmp_path):
    runner = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
    runner.run([spec()])                     # cold: miss
    runner.run([spec(), spec(2)])            # one hit, one miss
    assert (runner.hits, runner.misses) == (1, 2)
    counters = runner.metrics.to_dict()["counters"]
    assert counters["exec.cache.hits"] == runner.hits == 1
    assert counters["exec.cache.misses"] == runner.misses == 2


def test_uncached_runner_counts_only_misses():
    runner = ParallelRunner(jobs=1, cache=None)
    runner.run([spec()])
    assert runner.metrics.to_dict()["counters"] == {
        "exec.cache.misses": 1, "exec.attempts": 1, "exec.ok": 1}


def test_cached_result_has_no_metrics_payload(tmp_path):
    """Plain executor runs never attach observability, so the cached dict
    carries an empty metrics field -- hits stay byte-identical."""
    runner = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
    cold = runner.run_one(spec())
    warm = runner.run_one(spec())
    assert cold.metrics == warm.metrics == {}
    assert cold.to_dict() == warm.to_dict()


def test_run_result_metrics_round_trip():
    base = spec().execute().to_dict()
    base["metrics"] = {"counters": {"x": 1}, "gauges": {}, "histograms": {}}
    clone = RunResult.from_dict(base)
    assert clone.metrics == base["metrics"]
    assert clone.to_dict() == base


def test_run_result_tolerates_pre_obs_cache_entries():
    legacy = spec().execute().to_dict()
    del legacy["metrics"]                    # entry written before repro.obs
    assert RunResult.from_dict(legacy).metrics == {}
