"""Repeats: a cached batch simulates each distinct key once.

A spec whose key already missed earlier in the same batch is served
from that first occurrence: it counts as a hit, takes no attempt, no
dispatch ordinal and no journal record, and gets its own result object
(or, under ``keep_going``, its own copy of the failure).
"""

import pytest

from repro.exec import ParallelRunner, ResultCache, RunSpec, SweepJournal
from repro.exec.supervisor import QUARANTINED, SIM_ERROR
from repro.faults import ChaosPlan
from repro.workloads.synthetic import SyntheticBarrierWorkload

from .test_supervisor import (KILL_PLAN, ExplodingSpec,
                              assert_attempts_accounted)


def _spec(barrier, iterations=1):
    return RunSpec.make(SyntheticBarrierWorkload(iterations=iterations),
                        barrier, num_cores=4)


def _batch():
    """Three seedless specs three times each, plus one distinct spec."""
    a, b, c = (_spec(barrier) for barrier in ("gl", "dsw", "csw"))
    return [a, b, _spec("gl", iterations=2), c, a, b, c, a, b, c]


def _counters(runner):
    return runner.metrics.to_dict()["counters"]


@pytest.mark.parametrize("jobs", [1, 2])
def test_repeats_are_served_from_the_first_occurrence(tmp_path, jobs):
    specs = _batch()
    cache = ResultCache(tmp_path)
    runner = ParallelRunner(jobs=jobs, cache=cache)
    results = runner.run(specs)

    reference = ParallelRunner(jobs=1, cache=None).run(specs)
    assert [r.to_dict() for r in results] == \
        [r.to_dict() for r in reference]
    assert [r.barrier_name for r in results] == \
        ["GL", "DSW", "GL", "CSW", "GL", "DSW", "CSW", "GL", "DSW", "CSW"]
    assert len({id(r) for r in results}) == len(specs)
    assert len({id(r.stats) for r in results}) == len(specs)
    assert (runner.misses, runner.hits) == (4, 6)
    counters = _counters(runner)
    assert counters["exec.cache.hits"] == 6
    assert counters["exec.attempts"] == 4
    assert "6/10 cache hits (60%), 4 simulated" in runner.summary()
    assert_attempts_accounted(runner)

    warm = ParallelRunner(jobs=jobs, cache=cache)
    again = warm.run(specs)
    assert (warm.hits, warm.misses) == (10, 0)
    assert [r.to_dict() for r in again] == \
        [r.to_dict() for r in results]


@pytest.mark.parametrize("jobs", [1, 2])
def test_repeated_failure_fails_every_slot(tmp_path, jobs):
    good = _spec("gl")
    specs = [ExplodingSpec(), good, ExplodingSpec(), ExplodingSpec()]
    runner = ParallelRunner(jobs=jobs, cache=ResultCache(tmp_path),
                            keep_going=True)
    results = runner.run(specs)
    assert results[0] is results[2] is results[3] is None
    assert results[1].to_dict() == good.execute().to_dict()
    assert sorted(f.index for f in runner.failures) == [0, 2, 3]
    assert {(f.kind, f.attempts, f.detail) for f in runner.failures} == \
        {(SIM_ERROR, 1, "ValueError: deterministic failure")}
    assert (runner.misses, runner.hits) == (2, 2)
    assert _counters(runner)["exec.sim_errors"] == 1
    assert_attempts_accounted(runner)

    with pytest.raises(ValueError, match="deterministic failure"):
        ParallelRunner(jobs=jobs, cache=ResultCache(tmp_path)).run(specs)


def test_repeated_quarantine_fails_every_slot(tmp_path):
    spec = _spec("gl")
    runner = ParallelRunner(jobs=2, cache=ResultCache(tmp_path),
                            chaos=ChaosPlan(seed=3, kill_rate=1.0),
                            retries=0, keep_going=True)
    assert runner.run([spec, _spec("dsw"), spec]) == [None, None, None]
    assert sorted(f.index for f in runner.failures) == [0, 1, 2]
    assert all(f.kind == QUARANTINED and f.attempts == 1
               for f in runner.failures)
    repeat = next(f for f in runner.failures if f.index == 2)
    first = next(f for f in runner.failures if f.index == 0)
    assert (repeat.key, repeat.detail) == (first.key, first.detail)
    counters = _counters(runner)
    assert counters["exec.attempts"] == counters["exec.crashes"] == 2
    assert counters["exec.quarantined"] == 2
    assert_attempts_accounted(runner)


def test_repeats_write_no_journal_record(tmp_path):
    a, b = _spec("gl"), _spec("dsw")
    journal = SweepJournal(tmp_path / "j.jsonl", argv=["test"])
    runner = ParallelRunner(jobs=1, cache=ResultCache(tmp_path / "c"),
                            journal=journal)
    runner.run([a, b, a, b, a])
    journal.close()
    records = SweepJournal.records(tmp_path / "j.jsonl")[1:]
    assert sorted((r["type"], r["key"]) for r in records) == sorted(
        (kind, spec.key()) for spec in (a, b)
        for kind in ("attempt", "done"))


def test_repeats_take_no_dispatch_ordinal(tmp_path):
    """Seeded chaos strikes by dispatch ordinal: a batch with repeats
    journals exactly what the same batch without them does."""
    def journal_lines(tag, specs):
        path = tmp_path / f"{tag}.jsonl"
        journal = SweepJournal(path, argv=["test"])
        runner = ParallelRunner(
            jobs=2, cache=ResultCache(tmp_path / tag), chaos=KILL_PLAN,
            retries=2, timeout=120, journal=journal, backoff_base=0.01)
        results = runner.run(specs)
        journal.close()
        assert_attempts_accounted(runner)
        assert _counters(runner)["exec.crashes"] == 2   # ordinals 1, 2
        return results, sorted(path.read_text().splitlines())

    a, b, c = _spec("gl"), _spec("dsw"), _spec("gl", iterations=2)
    repeated, lines = journal_lines("repeated", [a, b, a, c, b])
    distinct, expected = journal_lines("distinct", [a, b, c])
    assert lines == expected
    assert [r.to_dict() for r in repeated] == \
        [r.to_dict() for r in (distinct[0], distinct[1], distinct[0],
                               distinct[2], distinct[1])]
