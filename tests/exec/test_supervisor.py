"""Supervised execution: deadlines, retries, quarantine, chaos, SIGINT,
worker death, and the exec.* attempt accounting identity.

These tests drive the supervisor through its public surface --
``ParallelRunner(..., timeout=/retries=/keep_going=/journal=/chaos=)`` --
so they cover the wiring in :mod:`repro.exec.parallel` too.
"""

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.common.errors import SimulationError
from repro.dse import SPACES
from repro.exec import (ParallelRunner, ResultCache, RunFailureError,
                        RunSpec, SweepJournal, deadline_for)
from repro.exec import supervisor
from repro.exec.supervisor import (CHAOS_DEFAULT_TIMEOUT_S,
                                   DEADLINE_FLOOR_S, QUARANTINED,
                                   SECONDS_PER_EVENT, SIM_ERROR)
from repro.faults import ChaosPlan
from repro.workloads.base import Workload
from repro.workloads.synthetic import SyntheticBarrierWorkload


def _spec(iterations=1, barrier="gl", cores=4, **kw):
    return RunSpec.make(SyntheticBarrierWorkload(iterations=iterations),
                        barrier, num_cores=cores, **kw)


def _specs(n=4):
    return [_spec(iterations=i, barrier=b)
            for i in range(1, n // 2 + 1) for b in ("gl", "dsw")]


class ExplodingWorkload(Workload):
    """Raises deterministically inside the simulation (a sim-error)."""

    name = "Exploding"

    def __init__(self, fuse: int = 0):
        self.fuse = fuse

    def programs(self, chip):
        raise SimulationError(f"boom (fuse={self.fuse})")


def _exploding_spec():
    return RunSpec.make(ExplodingWorkload(), "gl", num_cores=4)


class DyingWorkload(Workload):
    """Kills whatever process runs it, like an OOM-killed worker."""

    name = "Dying"

    def programs(self, chip):
        os._exit(9)


def _dse_specs(n=4, fidelity=1):
    space = SPACES["smoke"]
    return [space.build_spec(p, fidelity) for p in space.points()][:n]


class ExplodingSpec:
    """A picklable non-RunSpec spec whose execution always raises; its
    *tag* enters its key, so differently tagged specs are distinct."""

    max_events = None

    def __init__(self, tag=0):
        self.tag = tag

    def key(self):
        return f"boom{self.tag}".ljust(64, "0")

    def fingerprint(self):
        return {"boom": True, "tag": self.tag}

    def execute(self):
        raise ValueError("deterministic failure")


def assert_attempts_accounted(runner):
    """Every attempt ends in exactly one of the four outcomes."""
    counters = runner.metrics.to_dict()["counters"]
    outcomes = sum(counters.get(f"exec.{kind}", 0) for kind in
                   ("ok", "crashes", "timeouts", "sim_errors"))
    assert counters.get("exec.attempts", 0) == outcomes, counters


#: A plan whose first-attempt kills are known: seed 0 at kill_rate=0.25
#: strikes dispatch ordinals 1, 2, 5, 9, 11 (of 0..11) on attempt 0 and
#: none of them on attempt 1 (pinned by test_chaos determinism).
KILL_PLAN = ChaosPlan(seed=0, kill_rate=0.25)


# ---------------------------------------------------------------------- #
# Plain == timed == sequential; inline vs worker dispatch
# ---------------------------------------------------------------------- #
def test_supervised_results_match_basic(tmp_path):
    specs = _specs(4)
    plain = ParallelRunner(jobs=2, cache=None)
    timed = ParallelRunner(jobs=2, cache=ResultCache(tmp_path), timeout=120)
    assert [a.to_dict() for a in plain.run(specs)] == \
        [b.to_dict() for b in timed.run(specs)]
    assert_attempts_accounted(plain)
    assert_attempts_accounted(timed)


def test_supervision_knobs_engage_supervised_mode(tmp_path, monkeypatch):
    """Only a timeout or chaos moves a serial batch into workers; every
    other knob runs inline, through the same accounting."""
    spawned = []
    real_worker = supervisor._Worker

    def counting_worker(ctx):
        spawned.append(ctx)
        return real_worker(ctx)

    monkeypatch.setattr(supervisor, "_Worker", counting_worker)

    def workers_used(**kwargs):
        spawned.clear()
        runner = ParallelRunner(**kwargs)
        runner.run(_specs(2))
        assert_attempts_accounted(runner)
        return len(spawned)

    assert workers_used(jobs=1) == 0
    assert workers_used(jobs=1, retries=0, keep_going=True,
                        journal=SweepJournal(tmp_path / "j", argv=[])) == 0
    # A disabled chaos plan engages nothing.
    assert workers_used(jobs=1, chaos=ChaosPlan()) == 0
    assert workers_used(jobs=1, timeout=60.0) == 1
    assert workers_used(jobs=1, chaos=ChaosPlan(seed=0, kill_rate=1e-9)) \
        == 1
    assert workers_used(jobs=2) == 2


def test_supervised_default_retries():
    assert ParallelRunner(jobs=1)._supervisor.retries == 2
    assert ParallelRunner(jobs=1, timeout=5.0, retries=7) \
        ._supervisor.retries == 7
    with pytest.raises(ValueError):
        ParallelRunner(jobs=1, retries=-1)


# ---------------------------------------------------------------------- #
# Chaos: crash retry, quarantine, partial results
# ---------------------------------------------------------------------- #
def test_chaos_kills_are_retried_to_success(tmp_path):
    journal = SweepJournal(tmp_path / "j.jsonl", argv=["test"])
    runner = ParallelRunner(jobs=2, cache=ResultCache(tmp_path / "c"),
                            chaos=KILL_PLAN, retries=2, timeout=120,
                            journal=journal)
    specs = _specs(4)            # ordinals 0..3; seed 0 kills 1 and 2
    results = runner.run(specs)
    reference = ParallelRunner(jobs=1, cache=None).run(specs)
    assert [a.to_dict() for a in results] == \
        [b.to_dict() for b in reference]
    counters = runner.metrics.to_dict()["counters"]
    assert counters["exec.crashes"] == 2
    assert counters["exec.retries"] == 2
    assert "exec.quarantined" not in counters
    records = SweepJournal.records(tmp_path / "j.jsonl")
    crashes = [r for r in records if r["type"] == "attempt"
               and r["outcome"] == "crash"]
    assert len(crashes) == 2
    assert len([r for r in records if r["type"] == "done"]) == 4
    assert_attempts_accounted(runner)


def test_poison_spec_is_quarantined_keep_going(tmp_path):
    journal = SweepJournal(tmp_path / "j.jsonl", argv=["test"])
    runner = ParallelRunner(jobs=2, cache=ResultCache(tmp_path / "c"),
                            chaos=ChaosPlan(seed=3, kill_rate=1.0),
                            retries=1, keep_going=True, journal=journal)
    specs = _specs(2)
    results = runner.run(specs)
    assert results == [None, None]
    assert len(runner.failures) == 2
    assert all(f.kind == QUARANTINED for f in runner.failures)
    assert sorted(f.index for f in runner.failures) == [0, 1]
    assert all(f.attempts == 2 for f in runner.failures)  # 1 + 1 retry
    assert runner.metrics.to_dict()["counters"]["exec.quarantined"] == 2
    quarantined = [r for r in
                   SweepJournal.records(tmp_path / "j.jsonl")
                   if r["type"] == "quarantined"]
    assert len(quarantined) == 2
    assert all(r["last"] == "crash" for r in quarantined)
    assert_attempts_accounted(runner)


def test_failure_without_keep_going_raises_run_failure_error(tmp_path):
    runner = ParallelRunner(jobs=1, cache=None, retries=0,
                            chaos=ChaosPlan(seed=11, kill_rate=1.0))
    with pytest.raises(RunFailureError, match="quarantined") as excinfo:
        runner.run([_spec(iterations=1)])
    (failure,) = excinfo.value.failures
    assert failure.kind == QUARANTINED
    assert failure.index == 0
    assert "crash" in failure.detail
    assert_attempts_accounted(runner)


def test_partial_results_cached_before_abort(tmp_path):
    """With keep_going off, completed specs still land in the cache, so
    a rerun only re-simulates the failed one."""
    cache = ResultCache(tmp_path)
    # seed 0/0.25 kills ordinals 1, 2, 5, 9, 11; retries=0 quarantines
    # the first strike.  Serial dispatch => ordinal 0 completes first.
    runner = ParallelRunner(jobs=1, cache=cache, chaos=KILL_PLAN,
                            retries=0)
    specs = _specs(4)
    with pytest.raises(RunFailureError):
        runner.run(specs)
    assert specs[0].key() in cache
    assert_attempts_accounted(runner)
    rerun = ParallelRunner(jobs=1, cache=cache)
    rerun.run(specs)
    assert rerun.hits >= 1
    assert_attempts_accounted(rerun)


# ---------------------------------------------------------------------- #
# Timeouts
# ---------------------------------------------------------------------- #
def test_hang_is_killed_at_deadline_and_retried(tmp_path):
    # Hang on every first attempt, never on retries: rate 1.0 would hang
    # forever, so use a plan that hangs attempt 0 deterministically via
    # probing.
    plan = None
    for seed in range(200):
        candidate = ChaosPlan(seed=seed, hang_rate=0.5, hang_seconds=60)
        if candidate.roll("0", 0) == "hang" \
                and candidate.roll("0", 1) is None:
            plan = candidate
            break
    assert plan is not None
    journal = SweepJournal(tmp_path / "j.jsonl", argv=["test"])
    runner = ParallelRunner(jobs=1, cache=None, chaos=plan, retries=1,
                            timeout=1.0, journal=journal,
                            backoff_base=0.01)
    (result,) = runner.run([_spec(iterations=1)])
    reference = ParallelRunner(jobs=1, cache=None).run_one(
        _spec(iterations=1))
    assert result.to_dict() == reference.to_dict()
    counters = runner.metrics.to_dict()["counters"]
    assert counters["exec.timeouts"] == 1
    assert counters["exec.retries"] == 1
    outcomes = [r["outcome"] for r in
                SweepJournal.records(tmp_path / "j.jsonl")
                if r["type"] == "attempt"]
    assert outcomes == ["timeout", "ok"]
    assert_attempts_accounted(runner)


def test_deadline_for_precedence():
    explicit = deadline_for(_spec(max_events=100), 3.5)
    assert explicit == 3.5
    derived = deadline_for(_spec(max_events=100), None)
    assert derived == DEADLINE_FLOOR_S + 100 * SECONDS_PER_EVENT
    assert deadline_for(_spec(), None) is None


def test_hang_chaos_defaults_a_timeout():
    runner = ParallelRunner(jobs=1,
                            chaos=ChaosPlan(seed=0, hang_rate=0.5))
    assert runner._supervisor.timeout == CHAOS_DEFAULT_TIMEOUT_S


# ---------------------------------------------------------------------- #
# Sim errors: deterministic, never retried
# ---------------------------------------------------------------------- #
def test_sim_error_fails_fast_without_retry(tmp_path):
    journal = SweepJournal(tmp_path / "j.jsonl", argv=["test"])
    runner = ParallelRunner(jobs=1, cache=None, retries=3,
                            keep_going=True, journal=journal)
    good = _spec(iterations=1)
    results = runner.run([_exploding_spec(), good])
    assert results[0] is None
    assert results[1].to_dict() == \
        ParallelRunner(jobs=1, cache=None).run_one(good).to_dict()
    (failure,) = runner.failures
    assert failure.kind == SIM_ERROR
    assert failure.attempts == 1                 # no retries burned
    assert "SimulationError" in failure.detail
    counters = runner.metrics.to_dict()["counters"]
    assert counters["exec.sim_errors"] == 1
    assert "exec.retries" not in counters
    assert_attempts_accounted(runner)


def test_unsupervised_sim_error_keeps_original_exception_type():
    runner = ParallelRunner(jobs=1, cache=None)
    with pytest.raises(SimulationError, match="boom"):
        runner.run([_exploding_spec()])
    assert_attempts_accounted(runner)


@pytest.mark.parametrize("kwargs", [{"jobs": 1}, {"jobs": 2},
                                    {"jobs": 1, "timeout": 60.0}],
                         ids=["inline", "workers", "timed"])
def test_sim_error_reraises_original_type_without_keep_going(
        tmp_path, kwargs):
    """One error policy on every path: the worker's own exception type,
    raised after the rest of the batch is drained and cached."""
    cache = ResultCache(tmp_path)
    good = _dse_specs(1)
    runner = ParallelRunner(cache=cache, **kwargs)
    with pytest.raises(ValueError, match="deterministic failure"):
        runner.run(good + [ExplodingSpec()])
    assert good[0].key() in cache
    assert_attempts_accounted(runner)


# ---------------------------------------------------------------------- #
# Determinism: same seed => same journal content
# ---------------------------------------------------------------------- #
def test_same_chaos_seed_same_journal(tmp_path):
    def sweep(tag):
        journal = SweepJournal(tmp_path / f"{tag}.jsonl", argv=["test"])
        runner = ParallelRunner(
            jobs=2, cache=ResultCache(tmp_path / f"cache-{tag}"),
            chaos=KILL_PLAN, retries=2, timeout=120, journal=journal,
            backoff_base=0.01)
        results = runner.run(_specs(4))
        journal.close()
        assert_attempts_accounted(runner)
        lines = (tmp_path / f"{tag}.jsonl").read_text().splitlines()
        # Line *order* is completion order (racy); content is not.
        return [r.to_dict() for r in results], sorted(lines)

    results_a, journal_a = sweep("a")
    results_b, journal_b = sweep("b")
    assert results_a == results_b
    assert journal_a == journal_b
    assert any('"outcome": "crash"' in line for line in journal_a)


# ---------------------------------------------------------------------- #
# Graceful degradation and clean interrupts
# ---------------------------------------------------------------------- #
def test_pool_shrinks_on_crashes(tmp_path):
    runner = ParallelRunner(jobs=4, cache=None, chaos=KILL_PLAN,
                            retries=2, backoff_base=0.01)
    runner.run(_specs(4))        # ordinals 0..3: kills at 1 and 2
    width = runner.metrics.to_dict()["gauges"]["exec.pool.width"]
    assert width["peak"] == 4
    assert width["value"] == 2
    assert_attempts_accounted(runner)


def test_sigint_drains_flushes_and_reraises(tmp_path):
    journal = SweepJournal(tmp_path / "j.jsonl", argv=["test"])
    cache = ResultCache(tmp_path / "c")
    runner = ParallelRunner(jobs=2, cache=cache, timeout=60,
                            journal=journal)
    specs = [_spec(iterations=40, barrier=b, cores=16)
             for b in ("csw", "dsw", "gl")] * 2
    timer = threading.Timer(
        1.0, lambda: os.kill(os.getpid(), signal.SIGINT))
    timer.start()
    try:
        with pytest.raises(KeyboardInterrupt):
            runner.run(specs)
    finally:
        timer.cancel()
    assert not multiprocessing.active_children()     # no zombies
    # The 16-core csw run takes seconds: the interrupt lands mid-batch.
    assert specs[0].key() not in cache
    journal.interrupted()        # CLI layer would do this; idempotent
    journal.close()
    types = [r["type"] for r in
             SweepJournal.records(tmp_path / "j.jsonl")]
    assert types.count("interrupted") == 1


def test_keep_going_summary_mentions_failures(tmp_path):
    runner = ParallelRunner(jobs=1, cache=None, retries=0,
                            keep_going=True)
    runner.run([_exploding_spec()])
    assert "1 failed" in runner.summary()
    assert_attempts_accounted(runner)


# ---------------------------------------------------------------------- #
# Worker death: a plain parallel batch fails the spec, never hangs
# ---------------------------------------------------------------------- #
def test_worker_death_fails_the_spec_instead_of_hanging(tmp_path):
    def hung(signum, frame):
        raise AssertionError("batch hung after a worker died")

    cache = ResultCache(tmp_path)
    good = _spec(iterations=1)
    runner = ParallelRunner(jobs=2, cache=cache)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    start = time.monotonic()
    try:
        with pytest.raises(RunFailureError) as excinfo:
            runner.run([RunSpec.make(DyingWorkload(), "gl", num_cores=4),
                        good])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 10
    (failure,) = excinfo.value.failures
    assert failure.kind == QUARANTINED
    assert failure.detail.startswith("last failure: crash")
    assert good.key() in cache
    assert not multiprocessing.active_children()
    assert_attempts_accounted(runner)


# ---------------------------------------------------------------------- #
# Design-space specs and non-RunSpec specs through the same dispatcher
# ---------------------------------------------------------------------- #
def test_results_are_positional_and_cached(tmp_path):
    cache = ResultCache(tmp_path)
    specs = _dse_specs(3)
    runner = ParallelRunner(jobs=2, cache=cache)
    results = runner.run(specs)
    assert len(results) == 3
    for spec, result in zip(specs, results):
        assert result.total_cycles > 0
        assert spec.key() in cache
    assert (runner.hits, runner.misses) == (0, 3)
    assert_attempts_accounted(runner)

    warm = ParallelRunner(jobs=2, cache=cache)
    again = warm.run(specs)
    assert (warm.hits, warm.misses) == (3, 0)
    assert "exec.attempts" not in warm.metrics.to_dict()["counters"]
    assert [r.to_dict() for r in again] == \
        [r.to_dict() for r in results]


def test_runner_matches_direct_execution(tmp_path):
    spec = _dse_specs(1)[0]
    runner = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
    [result] = runner.run([spec])
    assert result.to_dict() == spec.execute().to_dict()
    assert_attempts_accounted(runner)


def test_sim_error_fails_fast_in_a_worker(tmp_path):
    runner = ParallelRunner(jobs=2, cache=ResultCache(tmp_path),
                            keep_going=True)
    results = runner.run([ExplodingSpec(0), ExplodingSpec(1)])
    assert results == [None, None]
    assert [f.kind for f in runner.failures] == ["sim-error"] * 2
    assert all("ValueError" in f.detail for f in runner.failures)
    assert "exec.retries" not in runner.metrics.to_dict()["counters"]
    assert runner.metrics.to_dict()["gauges"]["exec.pool.width"] \
        ["peak"] == 2                    # two workers, not inline
    assert_attempts_accounted(runner)


def test_keep_going_mixes_failures_and_results(tmp_path):
    good = _dse_specs(1)
    runner = ParallelRunner(jobs=2, cache=ResultCache(tmp_path),
                            keep_going=True)
    results = runner.run([ExplodingSpec()] + good)
    assert results[0] is None
    assert results[1].total_cycles > 0
    assert [f.index for f in runner.failures] == [0]
    assert_attempts_accounted(runner)


def test_chaos_kill_is_retried_and_journal_consistent(tmp_path):
    """A seeded killed worker is retried, results match a calm run, and
    the journal is consistent."""
    specs = _dse_specs(4)
    calm = ParallelRunner(jobs=2, cache=ResultCache(tmp_path / "calm"))
    expected = [r.to_dict() for r in calm.run(specs)]

    journal_path = tmp_path / "sweep.jsonl"
    journal = SweepJournal(journal_path, argv=["dse", "--test"])
    runner = ParallelRunner(
        jobs=2, cache=ResultCache(tmp_path / "chaos"), journal=journal,
        chaos=ChaosPlan(seed=0, kill_rate=0.3), retries=6)
    results = runner.run(specs)
    journal.close()

    assert [r.to_dict() for r in results] == expected
    counters = runner.metrics.to_dict()["counters"]
    assert counters["exec.crashes"] > 0
    assert counters["exec.retries"] == counters["exec.crashes"]
    assert "exec.quarantined" not in counters
    assert_attempts_accounted(calm)
    assert_attempts_accounted(runner)

    records = SweepJournal.records(journal_path)
    assert records[0]["type"] == "begin"
    assert "crash" in [r.get("outcome") for r in records
                       if r["type"] == "attempt"]
    done = SweepJournal.completed_keys(journal_path)
    assert done == {spec.key() for spec in specs}


def test_exhausted_retries_quarantine(tmp_path):
    specs = _dse_specs(1)
    journal = SweepJournal(tmp_path / "j.jsonl", argv=["x"])
    runner = ParallelRunner(
        jobs=1, cache=ResultCache(tmp_path), journal=journal,
        chaos=ChaosPlan(seed=0, kill_rate=1.0), retries=1,
        keep_going=True)
    results = runner.run(specs)
    journal.close()
    assert results == [None]
    assert runner.failures[0].kind == "quarantined"
    assert runner.failures[0].attempts == 2
    assert runner.metrics.to_dict()["counters"]["exec.quarantined"] == 1
    records = SweepJournal.records(tmp_path / "j.jsonl")
    assert [r["type"] for r in records].count("quarantined") == 1
    assert_attempts_accounted(runner)


def test_journal_hits_recorded_for_cache_hits(tmp_path):
    cache = ResultCache(tmp_path)
    specs = _dse_specs(2)
    cold = ParallelRunner(jobs=1, cache=cache)
    cold.run(specs)
    assert_attempts_accounted(cold)
    journal = SweepJournal(tmp_path / "j.jsonl", argv=["x"])
    warm = ParallelRunner(jobs=1, cache=cache, journal=journal)
    warm.run(specs)
    journal.close()
    records = SweepJournal.records(tmp_path / "j.jsonl")
    assert [r["type"] for r in records].count("hit") == 2
