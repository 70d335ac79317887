"""Shared helpers of the end-to-end benchmark.

Stdlib only: ``run.py`` imports this module without importing ``repro``,
so it can refuse to run in a directory that holds no simulator source.
"""

from __future__ import annotations

import heapq
import json
import os
import statistics
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
EXPECTED_PATH = HERE / "expected.json"
#: Scratch space for per-run temp dirs (the sweep's result caches);
#: every run removes its own subdirectory before it exits.
WORK = HERE / ".work"

WORKLOADS = ("paper32", "fabric256", "stress256", "sweep")
#: The seed the correctness pins in ``expected.json`` were made with.
PIN_SEED = 7
#: Environment that would change which engine, cache or chaos plan the
#: simulator uses; every benchmark child runs without it.
CLEARED_ENV = ("REPRO_SIM_BACKEND", "REPRO_CACHE_DIR", "REPRO_CHAOS")

#: Seconds one :func:`calibrate` sample takes at the reference host speed
#: (a 2-vCPU Xeon VM).  Timings are rescaled by ``CALIB_REF_S / sample``
#: raised to :data:`SENSITIVITY`, so that a neighbour slowing the shared
#: core for a few seconds does not read as a slower simulator.  The loop
#: is this file's own code: no change to ``src/`` can move it.
CALIB_REF_S = 0.0045
#: The simulator slows by about this power of the calibration loop's
#: slowdown when the host is contended (fitted on the reference host:
#: 0.6-0.8 per workload; without rescaling, run-to-run spreads there
#: reach 15-40%).
SENSITIVITY = 0.8


def simulator_present() -> bool:
    """True when the checkout holds the simulator's source tree."""
    return (SRC / "repro" / "__init__.py").is_file()


def child_env(tmpdir: str | os.PathLike[str]) -> dict[str, str]:
    """Environment of a benchmark child: the checkout's ``src`` on the
    path, the cleared variables removed, temp files kept in *tmpdir*.

    Bytecode is cached, as for an installed package, under ``WORK`` --
    so set-up time counts imports, not compilation, whatever the caller's
    environment, and nothing is written outside the checkout."""
    env = {k: v for k, v in os.environ.items()
           if k not in CLEARED_ENV and k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(tmpdir)
    return env


def load_spec() -> dict:
    with SPEC_PATH.open() as fh:
        return json.load(fh)


def load_expected() -> dict[str, dict[str, str]]:
    """``workload -> op name -> digest`` pinned at :data:`PIN_SEED`."""
    with EXPECTED_PATH.open() as fh:
        return json.load(fh)["digests"]


# ---------------------------------------------------------------------- #
# Statistics
# ---------------------------------------------------------------------- #
def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


# ---------------------------------------------------------------------- #
# Host-speed calibration
# ---------------------------------------------------------------------- #
class _Node:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int):
        self.key = key
        self.value = value

    def bump(self, table: dict[int, int]) -> None:
        table[self.key] = table.get(self.key, 0) + self.value


def _coroutine():
    acc = 0
    while True:
        acc = (acc + (yield acc)) % 1009


def _calibration_loop(n: int = 4000) -> int:
    """The simulator's host-side mix in miniature: a heap of event
    tuples, bound-method calls, generator sends, dict counters and
    closures."""
    queue: list[tuple[int, int, _Node]] = []
    table: dict[int, int] = {}
    nodes = [_Node(i & 63, i) for i in range(256)]
    gen = _coroutine()
    next(gen)
    check = 0
    for i in range(n):
        heapq.heappush(queue, ((i * 7919) % 1024, i, nodes[i & 255]))
        if len(queue) > 64:
            _, _, node = heapq.heappop(queue)
            node.bump(table)
        check = gen.send(i & 15)
        step = (lambda v, k=i: v + k)  # noqa: E731
        table[i & 511] = step(table.get(i & 511, 0)) & 0xFFFF
    return check


def calibrate(repeats: int = 3) -> float:
    """Calibration-loop seconds on the CPUs this process may run on: on
    each in turn, the fastest of *repeats* timings; then their mean."""
    cpus = os.sched_getaffinity(0)
    samples = []
    try:
        for cpu in sorted(cpus):
            if len(cpus) > 1:
                os.sched_setaffinity(0, {cpu})
            best = float("inf")
            for _ in range(repeats):
                t0 = time.perf_counter()
                _calibration_loop()
                best = min(best, time.perf_counter() - t0)
            samples.append(best)
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(samples) / len(samples)


def pin_to_one_cpu() -> None:
    """Keep this process (and the children it starts) on one CPU, so
    that calibration samples time the CPU the measured code runs on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def normalized(raw_s: float, calib_before: float, calib_after: float) -> float:
    """*raw_s* rescaled to the reference host speed."""
    slowdown = (calib_before + calib_after) / 2 / CALIB_REF_S
    return raw_s / slowdown ** SENSITIVITY
