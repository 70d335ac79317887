"""One workload of the end-to-end benchmark, in a fresh interpreter.

``run.py`` starts this script with the checkout's ``src`` on the path
and the engine, cache and chaos variables cleared::

    child.py setup   --workload W --seed N            build, print "ready"
    child.py measure --workload W --seed N --seconds S --out FILE
    child.py trace   --workload W --seed N --out FILE
    child.py pin     rewrite expected.json at the pin seed

``measure`` runs one discarded warm-up pass, then timed passes until
``--seconds`` have passed (at least :data:`MIN_PASSES`).  ``trace`` runs
the warm-up, one untraced and one traced pass, and writes the layer
metrics.  Both write one JSON object to ``--out``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time

from common import (CLEARED_ENV, EXPECTED_PATH, PIN_SEED, WORKLOADS,
                    load_expected, pin_to_one_cpu)

#: Timed passes a measuring run makes at least, whatever ``--seconds``.
MIN_PASSES = 5
#: Failure messages kept in the output (the count is always complete).
MAX_FAILURES_SHOWN = 10


class Checker:
    """Counts attempted and failed operations."""

    def __init__(self, pins: dict[str, str] | None):
        self.pins = pins
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, outcomes: list[dict], reference=None) -> None:
        from workloads import check

        for outcome in outcomes:
            self.attempted += 1
            why = check(outcome, self.pins, reference)
            if why is not None:
                self.failures.append(why)

    def fail(self, why: str) -> None:
        self.attempted += 1
        self.failures.append(why)

    def summary(self) -> dict:
        return {"attempted": self.attempted,
                "failed": len(self.failures),
                "failures": self.failures[:MAX_FAILURES_SHOWN]}


def pins_for(workload: str, seed: int, tiny: bool) -> dict[str, str] | None:
    """The pinned digests, or ``None`` when this run's inputs are not
    the pinned ones."""
    if tiny or seed != PIN_SEED:
        return None
    return load_expected().get(workload, {})


def peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def measure(args) -> dict:
    import workloads

    wl = workloads.build(args.workload, args.seed, args.tiny)
    if wl.jobs == 1:
        pin_to_one_cpu()
    checker = Checker(pins_for(args.workload, args.seed, args.tiny))
    checker.add(wl.warmup(), wl.reference())
    passes = []
    start = time.perf_counter()
    while (len(passes) < MIN_PASSES
           or time.perf_counter() - start < args.seconds):
        gc.collect()
        res = wl.run_pass()
        checker.add(res.outcomes, wl.reference())
        passes.append({"raw_s": res.raw_s, "wall_s": res.wall_s,
                       "sim_cycles": res.sim_cycles})
    return {"passes": passes, "peak_rss_mb": peak_rss_mb(),
            **checker.summary(), **environment()}


def trace_run(args) -> dict:
    import trace as layer_trace
    import workloads

    wl = workloads.build(args.workload, args.seed, args.tiny)
    checker = Checker(pins_for(args.workload, args.seed, args.tiny))
    checker.add(wl.warmup(), wl.reference())
    serial_s = getattr(wl, "serial_s", 0.0)

    def uncalibrated():
        return workloads.Timer(calibrated=False)

    gc.collect()
    start = time.perf_counter()
    plain = wl.run_pass(uncalibrated())
    plain_wall = time.perf_counter() - start
    checker.add(plain.outcomes, wl.reference())
    gc.collect()
    traced_wall, traced, prof, absent = layer_trace.traced_pass(
        wl, uncalibrated)
    checker.add(traced.outcomes, wl.reference())
    if ([o.get("digest") for o in plain.outcomes]
            != [o.get("digest") for o in traced.outcomes]):
        checker.fail("traced digests differ from the untraced ones")
    metrics = layer_trace.layer_metrics(prof, traced_wall, traced,
                                        plain_wall, plain, serial_s)
    return {"metrics": metrics, "absent": absent,
            "absent_layers": layer_trace.absent_layers(absent),
            **checker.summary(), **environment()}


def environment() -> dict:
    """What the child ran with, for the harness tests."""
    from repro.common.params import CMPConfig

    return {"env": {k: os.environ.get(k) for k in CLEARED_ENV},
            "backend": CMPConfig().sim_backend}


def pin() -> None:
    """Rewrite ``expected.json`` from one warm-up of every workload at
    the pin seed; refuses when any operation fails."""
    import workloads

    digests: dict[str, dict[str, str]] = {}
    for name in WORKLOADS:
        wl = workloads.build(name, PIN_SEED)
        checker = Checker(None)
        outcomes = wl.warmup()
        checker.add(outcomes, wl.reference())
        if checker.failures:
            raise SystemExit(f"{name}: {checker.failures}")
        digests[name] = {o["name"]: o["digest"] for o in outcomes
                         if o["kind"] == "sim"}
    with EXPECTED_PATH.open("w") as fh:
        json.dump({"seed": PIN_SEED, "digests": digests}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure", "trace",
                                         "pin"))
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=PIN_SEED)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--out")
    parser.add_argument("--tiny", action="store_true",
                        help="minimal inputs, for the harness tests")
    args = parser.parse_args(argv)
    if args.mode == "pin":
        pin()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.mode == "setup":
        import workloads

        workloads.build(args.workload, args.seed, args.tiny).setup()
        print("ready", flush=True)
        return 0
    if args.out is None:
        parser.error("--out is required")
    result = measure(args) if args.mode == "measure" else trace_run(args)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
