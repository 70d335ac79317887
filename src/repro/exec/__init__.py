"""Parallel experiment execution with a persistent result cache.

The paper's evaluation is dozens of independent ``(config, workload,
barrier)`` simulations; this subsystem fans them out over worker
processes, memoizes every completed run on disk, and -- when asked --
supervises the whole sweep like a job scheduler:

* :class:`RunSpec` -- a picklable, content-hashable description of one run
  (chip config + workload state + barrier + seed + code version).
* :class:`ResultCache` -- content-addressed JSON store; the cache format
  is exactly ``RunResult.to_dict()``, the same dict the worker IPC ships.
* :class:`ParallelRunner` -- batch executor (``jobs`` workers) that serves
  hits from the cache and writes back misses as they complete.
* :class:`~repro.exec.supervisor.Supervisor` -- the one dispatch loop
  behind every runner: persistent worker processes, per-spec deadlines,
  crash/hang detection, bounded retries with full-jitter backoff,
  quarantine (:class:`RunFailure`), and clean SIGINT draining; the
  runner's ``timeout`` / ``retries`` / ``keep_going`` / ``journal`` /
  ``chaos`` keywords set its policy.
* :class:`SweepJournal` -- JSONL manifest of every hit/attempt/outcome,
  the input to ``repro resume``.
* :func:`current_executor` / :func:`use_executor` -- the ambient executor
  all of :mod:`repro.experiments` routes through; the CLI's ``--jobs``,
  ``--cache-dir``, ``--no-cache``, ``--timeout``, ``--retries``,
  ``--keep-going`` and ``--journal`` flags install one here.

See ``docs/parallel-execution.md`` for the design, the cache-key
definition and the supervision lifecycle.
"""

from .cache import CACHE_DIR_ENV, ResultCache, default_cache_dir
from .journal import JournalError, SweepJournal
from .parallel import ParallelRunner, current_executor, use_executor
from .spec import RunSpec, SpecError, workload_fingerprint
from .supervisor import RunFailure, RunFailureError, deadline_for
from .version import code_fingerprint

__all__ = [
    "CACHE_DIR_ENV", "ResultCache", "default_cache_dir",
    "JournalError", "SweepJournal",
    "ParallelRunner", "current_executor", "use_executor",
    "RunSpec", "SpecError", "workload_fingerprint",
    "RunFailure", "RunFailureError", "deadline_for",
    "code_fingerprint",
]
