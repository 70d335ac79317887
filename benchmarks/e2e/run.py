"""End-to-end benchmark of the simulator (the ``BENCHMARK.json`` command).

    python3 benchmarks/e2e/run.py --workload paper32 --seed 7 \\
        --seconds 15 --trace 0

Runs from the root of a checkout.  Every child is a fresh interpreter
with the checkout's ``src`` on the path and ``REPRO_SIM_BACKEND``,
``REPRO_CACHE_DIR`` and ``REPRO_CHAOS`` cleared, so the default engine
runs.  With ``--trace 0`` it samples set-up time in fresh children, then
one child times passes of the workload for ``--seconds``; the last
stdout line carries the end-to-end metrics.  With ``--trace 1`` one
child makes a traced pass and the last line carries the per-layer
metrics.  The line before it is a JSON detail record (sample counts,
quartiles, failures, absent layers).

Exits non-zero without a result when the simulator's source is missing
or a child dies.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from common import (HERE, ROOT, WORK, WORKLOADS, calibrate, child_env,
                    load_spec, normalized, pin_to_one_cpu, quartiles,
                    simulator_present)

CHILD = HERE / "child.py"
#: Set-up samples per run, after one discarded sample that lets the
#: interpreter write its bytecode caches.
SETUP_SAMPLES = 5
#: Wall-clock limit on one child; the whole run must end in 180 s.
CHILD_TIMEOUT_S = 150.0


class ChildError(RuntimeError):
    """A benchmark child failed or timed out."""


def _stop(proc: subprocess.Popen) -> None:
    """Kill *proc*'s whole process group (pool workers included) and
    wait for it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def _argv(mode: str, args, *extra: str) -> list[str]:
    argv = [sys.executable, str(CHILD), mode, "--workload", args.workload,
            "--seed", str(args.seed), *extra]
    return argv + (["--tiny"] if args.tiny else [])


def run_child(argv: list[str], env: dict[str, str], out: Path) -> dict:
    """Run one child to completion; returns the JSON it wrote."""
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=sys.stderr,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise ChildError(f"{argv[2]} child timed out") from None
    finally:
        if proc.returncode is None:
            _stop(proc)
    if code != 0:
        raise ChildError(f"{argv[2]} child exited with {code}")
    with out.open() as fh:
        return json.load(fh)


def setup_sample(argv: list[str], env: dict[str, str]) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter until it has imported
    ``repro`` and built every chip and model of the workload: raw, and
    rescaled to the reference host speed."""
    before = calibrate()
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.close()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.returncode is None:
            _stop(proc)
    if code != 0 or line.strip() != b"ready":
        raise ChildError(f"setup child exited with {code}")
    return elapsed, normalized(elapsed, before, calibrate())


def setup_samples(args, env: dict[str, str]) -> list[tuple[float, float]]:
    """Set-up samples, taken on one CPU."""
    cpus = os.sched_getaffinity(0)
    pin_to_one_cpu()
    try:
        argv = _argv("setup", args)
        setup_sample(argv, env)
        return [setup_sample(argv, env) for _ in range(SETUP_SAMPLES)]
    finally:
        os.sched_setaffinity(0, cpus)


def measure(args, env: dict[str, str],
            tmp: Path) -> tuple[dict, dict, dict]:
    """Returns the child's output, the end-to-end metrics and details."""
    setup = setup_samples(args, env)
    out = tmp / "measure.json"
    child = run_child(_argv("measure", args, "--seconds", str(args.seconds),
                            "--out", str(out)), env, out)
    walls = [p["wall_s"] for p in child["passes"]]
    q1, wall, q3 = quartiles(walls)
    cycles = child["passes"][0]["sim_cycles"]
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(norm for _, norm in setup),
        "peak_rss_mb": child["peak_rss_mb"],
        "sim_kcycles_per_s": cycles / wall / 1000.0,
    }
    detail = {
        "passes": len(walls),
        "wall_s": {"q1": q1, "median": wall, "q3": q3,
                   "raw_median": statistics.median(
                       p["raw_s"] for p in child["passes"])},
        "setup_s": {"raw": [raw for raw, _ in setup],
                    "samples": [norm for _, norm in setup]},
        "sim_cycles_per_pass": cycles,
    }
    return child, metrics, detail


def trace(args, env: dict[str, str],
          tmp: Path) -> tuple[dict, dict, dict]:
    """Returns the child's output, the per-layer metrics and details."""
    out = tmp / "trace.json"
    child = run_child(_argv("trace", args, "--out", str(out)), env, out)
    detail = {"absent": child["absent"],
              "absent_layers": child["absent_layers"]}
    return child, child["metrics"], detail


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the simulator.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="minimal inputs, for the harness tests")
    args = parser.parse_args(argv)
    if not simulator_present():
        print(f"no simulator source under {ROOT / 'src'}; run from the "
              f"root of a checkout", file=sys.stderr)
        return 2
    spec = load_spec()
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORK))
    try:
        runner = trace if args.trace else measure
        child, measured, extra = runner(args, child_env(tmp), tmp)
    except ChildError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"benchmark failed: no value for {missing}", file=sys.stderr)
        return 1
    for why in child["failures"]:
        print(f"failed: {why}", file=sys.stderr)
    detail = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "attempted": child["attempted"],
              "failed": child["failed"], "failures": child["failures"],
              "env": child["env"], "backend": child["backend"],
              **extra}
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
