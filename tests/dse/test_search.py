"""run_search: determinism, budget accounting, warm-rerun behavior,
failure tolerance and front exports."""

from pathlib import Path

import pytest

from repro.dse import (SPACES, Axis, DseSpace, SearchError, front_csv,
                       front_json, pareto_front, run_search)
from repro.exec import ParallelRunner, ResultCache

SMOKE = SPACES["smoke"]


def _search(runner=None, **kwargs):
    kwargs.setdefault("budget", 8)
    kwargs.setdefault("seed", 3)
    kwargs.setdefault("rungs", (1, 2))
    return run_search(SMOKE, runner=runner, **kwargs)


def test_search_is_deterministic_per_seed():
    a, b = _search(), _search()
    assert front_json(a) == front_json(b)
    assert front_json(a) != front_json(_search(seed=4))


def test_budget_counts_evaluation_requests():
    result = _search(budget=5)
    assert result.evaluations == 5
    assert result.rounds >= 1


def test_front_points_are_mutually_nondominated():
    result = _search(budget=12)
    assert result.front
    vectors = [tuple(fp.objectives[n] for n in result.objectives)
               for fp in result.front]
    assert pareto_front(vectors) == list(range(len(vectors)))
    for fp in result.front:
        assert fp.fidelity == result.rungs[-1]
        assert set(fp.point) == {a.name for a in SMOKE.axes}


def test_warm_rerun_is_identical_with_zero_simulation(tmp_path):
    cold_runner = ParallelRunner(jobs=2, cache=ResultCache(tmp_path),
                                 keep_going=True)
    cold = _search(runner=cold_runner)
    warm_runner = ParallelRunner(jobs=2, cache=ResultCache(tmp_path),
                                 keep_going=True)
    warm = _search(runner=warm_runner)
    assert front_json(cold) == front_json(warm)
    assert warm_runner.misses == 0
    assert warm.evaluations == cold.evaluations


def test_runtime_infeasible_points_are_dropped():
    # An unhardened G-line barrier under stuck-at faults deadlocks:
    # the point costs budget, fails as a sim-error, and never reaches
    # the front.
    space = DseSpace(
        "faulty",
        (Axis("mesh", ("4x4",)),
         Axis("barrier", ("gl",)),
         Axis("watchdog_budget", (0,)),
         Axis("stuck_rate", (0.01,))))
    result = run_search(space, budget=4, seed=1, rungs=(2,))
    assert result.failed >= 1
    assert result.front == []


def test_search_validates_inputs():
    with pytest.raises(SearchError):
        _search(objectives=("no-such-objective",))
    with pytest.raises(SearchError):
        _search(objectives=())
    with pytest.raises(SearchError):
        _search(rungs=(4, 2))
    with pytest.raises(SearchError):
        _search(budget=0)


def test_front_exports():
    result = _search(budget=10)
    js = front_json(result)
    assert js.endswith("\n")
    assert front_json(result) == js           # stable
    csv_text = front_csv(result)
    header, *rows = csv_text.strip().splitlines()
    axes = sorted(a.name for a in SMOKE.axes)
    assert header.split(",")[:len(axes)] == axes
    assert header.split(",")[len(axes):] == list(result.objectives)
    assert len(rows) == len(result.front)


def test_smoke_search_matches_committed_golden_front():
    """The CI dse-smoke settings reproduce results/dse_front.json.

    A drift means the simulator, the search trajectory or the space
    changed -- update the golden deliberately (the command is in
    .github/workflows/ci.yml).
    """
    golden = (Path(__file__).resolve().parents[2] / "results" /
              "dse_front.json")
    result = run_search(SMOKE, budget=12, seed=7, rungs=(2, 4))
    assert front_json(result) == golden.read_text()


def test_failover_objective_is_selectable():
    result = run_search(SMOKE, objectives=("latency", "failover"),
                        budget=4, seed=2, rungs=(1,))
    for fp in result.front:
        assert fp.objectives["failover"] == 0.0   # fault-free space
