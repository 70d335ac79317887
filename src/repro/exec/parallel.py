"""Parallel experiment executor with cache-aware, supervised dispatch.

:class:`ParallelRunner` takes batches of independent :class:`RunSpec`\\ s
and returns their :class:`~repro.chip.results.RunResult`\\ s, fanning cache
misses out over persistent supervised worker processes
(:mod:`repro.exec.supervisor`, the one dispatch loop).  Three invariants
keep it a drop-in replacement for the old sequential loops:

* **Same numbers.**  Simulation is deterministic, so a result is identical
  whether it came from this process, a worker, or the cache.  Every result
  -- including in-process ones -- passes through the
  ``RunResult.to_dict()``/``from_dict()`` round trip, so all paths return
  byte-for-byte the same object graph.
* **Order-preserving.**  ``run(specs)`` returns results positionally,
  regardless of which were hits and which ran where.
* **Parent-only cache writes.**  Workers only compute; the parent stores
  results *as they complete* (association-preserving async dispatch), so
  work finished before a batch error is never lost, and the cache needs
  no cross-process locking.

Every batch gets the same supervision -- crash/hang detection, bounded
retries with backoff, quarantine, resumable journaling -- so a worker
that dies fails its spec instead of hanging the batch.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Sequence

from ..chip.results import RunResult
from ..obs.metrics import MetricsRegistry
from .cache import ResultCache
from .spec import RunSpec
from .supervisor import BACKOFF_BASE_S, DEFAULT_RETRIES, Supervisor


def _result_decoder(spec):
    """The dict->result decoder for *spec*'s result type.

    ``RunSpec`` produces ``RunResult``; other spec kinds (e.g.
    :class:`~repro.verify.shard.VerifyShardSpec`) advertise their own
    decoder via a ``result_from_dict`` attribute.  The cache stores plain
    dicts either way, so storage and IPC stay format-agnostic."""
    return getattr(spec, "result_from_dict", RunResult.from_dict)


def _execute_to_dict(spec: RunSpec) -> dict:
    """Run one spec (in a worker, or inline) and return the result as a
    plain dict (the same format the cache stores and the pipe ships).

    The ambient executor is forced to a serial, uncached runner for the
    duration: under the ``fork`` start method a worker inherits the
    parent's executor, and a workload that (transitively) calls
    ``run_many`` would otherwise fork a pool *inside* the pool and write
    the cache from a process that must not own it.
    """
    with use_executor(ParallelRunner(jobs=1, cache=None)):
        return spec.execute().to_dict()


class ParallelRunner:
    """Executes batches of runs over worker processes, consulting a cache.

    Pool width (``jobs``) is the only dispatch knob; the keywords below
    set failure policy, identically for every batch.

    :param timeout: per-spec wall-clock deadline in seconds.
    :param retries: bounded retries for crashed/timed-out attempts.
    :param keep_going: return partial results -- failed positions are
        ``None`` and recorded in :attr:`failures` -- instead of raising.
    :param journal: a :class:`~repro.exec.journal.SweepJournal` receiving
        hit/attempt/done/quarantine records (enables ``repro resume``).
    :param chaos: a :class:`~repro.faults.ChaosPlan`; workers are
        killed/hung/OOMed per its seeded schedule (testing the
        supervisor is the only sane use).
    """

    def __init__(self, jobs: int | None = None,
                 cache: ResultCache | None = None, *,
                 timeout: float | None = None,
                 retries: int = DEFAULT_RETRIES,
                 keep_going: bool = False,
                 journal=None,
                 chaos=None,
                 backoff_base: float = BACKOFF_BASE_S):
        #: Worker-pool width; ``None`` means one worker per CPU.
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        #: ``None`` disables caching entirely.
        self.cache = cache
        self.keep_going = keep_going
        self.journal = journal
        #: Batch-lifetime counters for the CLI's summary line.
        self.hits = 0
        self.misses = 0
        #: Terminal :class:`~repro.exec.supervisor.RunFailure`\\ s across
        #: this runner's lifetime (only populated under ``keep_going``;
        #: otherwise they arrive as a raised exception).
        self.failures = []
        #: The same counters as metric streams ("exec.cache.hits" /
        #: "exec.cache.misses", plus the supervisor's "exec.attempts",
        #: "exec.ok", "exec.retries", ...), exportable via ``--metrics``
        #: -- not just a throwaway print.
        self.metrics = MetricsRegistry()
        self._supervisor = Supervisor(
            self.jobs, timeout=timeout, retries=retries,
            keep_going=keep_going, journal=journal, chaos=chaos,
            metrics=self.metrics, backoff_base=backoff_base, cache=cache)

    # ------------------------------------------------------------------ #
    def run(self, specs: Sequence[RunSpec]) -> list[RunResult]:
        """Execute *specs*, returning results in the same order.

        Cache hits are served without simulating; misses are dispatched
        by the supervisor, then written back to the cache as each
        completes.  Under ``keep_going`` a failed spec's slot is ``None``
        and the failure is appended to :attr:`failures`.
        """
        results: list[RunResult | None] = [None] * len(specs)
        pending: list[tuple[int, RunSpec, str | None]] = []
        for i, spec in enumerate(specs):
            key = spec.key() if self.cache is not None else None
            if key is not None:
                stored = self.cache.get(key)
                if stored is not None:
                    self.hits += 1
                    self.metrics.counter("exec.cache.hits").inc()
                    if self.journal is not None:
                        self.journal.hit(key)
                    results[i] = _result_decoder(spec)(stored)
                    continue
            self.misses += 1
            self.metrics.counter("exec.cache.misses").inc()
            pending.append((i, spec, key))

        if pending:
            self.failures.extend(self._supervisor.dispatch(pending, results))
        return results  # type: ignore[return-value]

    def run_one(self, spec: RunSpec) -> RunResult:
        return self.run([spec])[0]

    # ------------------------------------------------------------------ #
    def summary(self) -> str:
        """One-line cache-hit/miss digest for the CLI."""
        total = self.hits + self.misses
        failed = f", {len(self.failures)} failed" if self.failures else ""
        if self.cache is None:
            return f"cache disabled; {total} runs executed{failed}"
        rate = (self.hits / total * 100) if total else 0.0
        return (f"{self.hits}/{total} cache hits ({rate:.0f}%), "
                f"{self.misses} simulated{failed}  "
                f"[dir={self.cache.directory}, jobs={self.jobs}]")


# ---------------------------------------------------------------------- #
# Ambient executor: library code routes through whatever is current, so
# the CLI (or a test) can widen the pool / enable the cache for everything
# below it without threading an argument through every driver.
# ---------------------------------------------------------------------- #
#: The default executor: sequential, uncached -- byte-identical behavior
#: to the pre-executor code for library users who never opt in.
_DEFAULT = ParallelRunner(jobs=1, cache=None)
_current: ParallelRunner = _DEFAULT


def current_executor() -> ParallelRunner:
    """The executor experiment drivers route through."""
    return _current


@contextmanager
def use_executor(executor: ParallelRunner) -> Iterator[ParallelRunner]:
    """Install *executor* as the ambient executor within the block."""
    global _current
    previous = _current
    _current = executor
    try:
        yield executor
    finally:
        _current = previous
