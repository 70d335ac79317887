"""The four workloads of the end-to-end benchmark.

Each workload is built from ``--seed`` and runs as *passes*: one pass
executes every operation of the workload once, on fresh chips, so the
modelled caches start empty in every pass.  An operation is one chip
run, one executor spec, one verify shard or one exploration; each
yields an *outcome* dict that :func:`check` judges.

Every timed call goes through a :class:`Timer`, which rescales it by the
calibration loop run just before and just after it (see
:mod:`common`).
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace
from typing import Callable

from common import WORKLOADS, calibrate, normalized

from repro import verify
from repro.chip.cmp import CMP
from repro.collectives import ops as coll_ops
from repro.collectives.config import CollectiveConfig
from repro.common.params import CMPConfig
from repro.exec.cache import ResultCache
from repro.exec.parallel import ParallelRunner
from repro.exec.spec import RunSpec
from repro.experiments.runner import paper_config
from repro.workloads import (CollectiveAllReduceWorkload, Kernel3Workload,
                             StressWorkload, SyntheticBarrierWorkload)

#: The paper's 4-cycle completion bound, checked on every exploration.
MAX_COMPLETION_TICKS = 4


class Timer:
    """Sums wall time of calls, raw and rescaled to the reference host
    speed by calibration samples taken around each call.  Each call
    starts from a collected heap, so that garbage of the previous one
    neither lands in its time nor in its peak memory.

    An uncalibrated timer (the traced run's) takes no samples and leaves
    times raw."""

    def __init__(self, calibrated: bool = True) -> None:
        self.calibrated = calibrated
        self.raw_s = 0.0
        self.norm_s = 0.0
        self._last: float | None = None

    def call(self, fn: Callable, *args):
        gc.collect()
        if self.calibrated and self._last is None:
            self._last = calibrate()
        t0 = time.perf_counter()
        out = fn(*args)
        raw = time.perf_counter() - t0
        self.raw_s += raw
        if self.calibrated:
            before, self._last = self._last, calibrate()
            self.norm_s += normalized(raw, before, self._last)
        else:
            self.norm_s += raw
        return out


@dataclass
class PassResult:
    """What one pass produced: timings, outcomes, simulated cycles."""

    raw_s: float
    wall_s: float
    outcomes: list[dict]
    sim_cycles: int
    #: Per-layer timings measured from outside (the sweep's executor
    #: and model-checker calls).
    extra: dict = field(default_factory=dict)


# ---------------------------------------------------------------------- #
# Outcomes
# ---------------------------------------------------------------------- #
def digest(result) -> str:
    """Digest of a run's simulated observables.

    Leaves out ``events_executed`` and raw counter names, so that engine
    merges and metric renames are not read as wrong results."""
    payload = {
        "total_cycles": result.total_cycles,
        "cycles": {c.value: n for c, n in result.cycle_breakdown().items()},
        "messages": {c.value: n for c, n in result.messages().items()},
        "num_barriers": result.num_barriers(),
        "avg_barrier_latency": result.avg_barrier_latency(),
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def sim_outcome(name: str, result) -> dict:
    """Outcome of one chip run: its digest plus the layer counts."""
    stats = result.stats
    c = stats.counters
    l1_hits = sum(c.get(f"l1.{k}_hits", 0)
                  for k in ("load", "store", "atomic"))
    l1_misses = sum(c.get(k, 0) for k in (
        "l1.load_misses", "l1.store_misses", "l1.store_upgrades",
        "l1.atomic_misses"))
    return {
        "name": name, "kind": "sim", "error": None,
        "digest": digest(result),
        "cycles": result.total_cycles,
        "events": result.events_executed,
        "messages": stats.total_messages(),
        "flit_hops": sum(stats.hop_flits.values()),
        "l1_accesses": l1_hits + l1_misses,
        "l1_misses": l1_misses,
        "l1_invalidations": c.get("l1.invalidations", 0),
        "dir_queued": c.get("dir.queued", 0),
        "mem_accesses": c.get("mem.accesses", 0),
        "gline_toggles": stats.gline_toggles,
        "gline_barriers": c.get("gline.barriers", 0),
        "collectives": c.get("collectives.completed", 0),
        "episodes": result.num_barriers(),
        "latency_sum": sum(b.latency_after_last_arrival
                           for b in stats.barriers),
        "s2_wait": c.get("barrier.s2_wait_cycles", 0),
        "sync": c.get("barrier.sync_cycles", 0),
    }


def verify_outcome(name: str, *, states: int, transitions: int,
                   proved: bool, ticks: int | None) -> dict:
    """Outcome of a shard or exploration: it passes when every property
    is PROVED and completion stays within the 4-cycle bound."""
    error = None
    if not proved:
        error = "a property is not PROVED"
    elif ticks is not None and ticks > MAX_COMPLETION_TICKS:
        error = f"completion took {ticks} ticks"
    return {"name": name, "kind": "verify", "error": error,
            "states": states, "transitions": transitions}


def failed_outcome(name: str, exc: BaseException) -> dict:
    return {"name": name, "kind": "error",
            "error": f"{type(exc).__name__}: {exc}"}


def check(outcome: dict, pins: dict[str, str] | None,
          reference: dict[str, str] | None = None) -> str | None:
    """Why *outcome* failed, or ``None`` when it is correct.

    *pins* maps op names to digests pinned in ``expected.json`` (only at
    the pin seed); *reference* maps them to digests of verified
    in-process runs of the same inputs."""
    name = outcome["name"] + (" (warm rerun)" if outcome.get("cached")
                              else "")
    if outcome["error"] is not None:
        return f"{name}: {outcome['error']}"
    if outcome["kind"] != "sim":
        return None
    got = outcome["digest"]
    for source, table in (("pinned", pins), ("in-process", reference)):
        if table is None:
            continue
        want = table.get(outcome["name"])
        if want != got:
            return (f"{name}: digest {got} differs from the {source} "
                    f"digest {want}")
    return None


# ---------------------------------------------------------------------- #
# Chip-run workloads
# ---------------------------------------------------------------------- #
@dataclass
class SimOp:
    """One chip run: a configuration, a barrier kind and a workload."""

    name: str
    config: CMPConfig
    barrier: str
    make: Callable[[], object]

    def build(self) -> None:
        """Set-up only: build the chip and the per-core programs."""
        chip = CMP(self.config, barrier=self.barrier)
        self.make().build(chip)

    def run(self, timer: Timer) -> dict:
        workload = self.make()

        def simulate():
            chip = CMP(self.config, barrier=self.barrier)
            return chip, chip.run(workload)

        chip, result = timer.call(simulate)
        workload.verify(chip)
        return sim_outcome(self.name, result)


class SimWorkload:
    """A list of chip runs, executed one after another in this process."""

    jobs = 1

    def __init__(self, name: str, ops: list[SimOp]):
        self.name = name
        self.ops = ops

    def setup(self) -> None:
        for op in self.ops:
            op.build()

    def warmup(self) -> list[dict]:
        return self.run_pass().outcomes

    def run_pass(self, timer: Timer | None = None) -> PassResult:
        timer = timer or Timer()
        outcomes = []
        for op in self.ops:
            try:
                outcomes.append(op.run(timer))
            except Exception as exc:  # noqa: BLE001 - counted as failed op
                outcomes.append(failed_outcome(op.name, exc))
        return PassResult(raw_s=timer.raw_s, wall_s=timer.norm_s,
                          outcomes=outcomes,
                          sim_cycles=sum(o.get("cycles", 0)
                                         for o in outcomes))

    def reference(self) -> None:
        return None


def _paper32(rng: random.Random, tiny: bool) -> list[SimOp]:
    """Figure 5's grid and the KERN3 DSW-vs-GL pair of figures 6/7."""
    cores = (4, 8) if tiny else (4, 8, 16, 32)
    iterations = 1 if tiny else 2
    ops = [SimOp(f"synth-{b}-{n}", paper_config(n), b,
                 lambda: SyntheticBarrierWorkload(iterations=iterations))
           for b in ("csw", "dsw", "gl") for n in cores]
    k3_cores = 8 if tiny else 32
    k3_seed = rng.randrange(1 << 30)
    k3_iterations = 2 if tiny else 10
    ops += [SimOp(f"kern3-{b}-{k3_cores}", paper_config(k3_cores), b,
                  lambda: Kernel3Workload(iterations=k3_iterations,
                                          seed=k3_seed))
            for b in ("dsw", "gl")]
    return ops


def _fabric256(rng: random.Random, tiny: bool) -> list[SimOp]:
    """G-line barriers and all-reduces on the hierarchical fabric."""
    small, large = (16, 16) if tiny else (64, 256)
    sync_iterations = 4 if tiny else 40
    # A multiple of the kind count, so every rotation reduces the same
    # multiset of kinds.
    coll_iterations = len(coll_ops.KINDS) * (1 if tiny else 3)
    turn = rng.randrange(len(coll_ops.KINDS))
    kinds = coll_ops.KINDS[turn:] + coll_ops.KINDS[:turn]

    def coll_config(cores: int, integrity: str) -> CMPConfig:
        return replace(CMPConfig.for_cores(cores),
                       collectives=CollectiveConfig(
                           enabled=True, value_width=8,
                           integrity=integrity))

    ops = [
        SimOp(f"gl-sync-{n}", CMPConfig.for_cores(n), "gl",
              lambda: SyntheticBarrierWorkload(iterations=sync_iterations))
        for n in (small, large)]
    ops += [
        SimOp(f"allreduce-{large}", coll_config(large, "off"), "gl",
              lambda: CollectiveAllReduceWorkload(
                  iterations=coll_iterations, kinds=kinds)),
        SimOp(f"allreduce-echo-{small}", coll_config(small, "echo"), "gl",
              lambda: CollectiveAllReduceWorkload(
                  iterations=coll_iterations, kinds=kinds)),
    ]
    return ops


def _stress256(rng: random.Random, tiny: bool) -> list[SimOp]:
    """Random op-mixes under 256-way sharing on the 16x16 mesh.

    Many seeded instances per pass: one instance's simulated cycles swing
    by a fifth from seed to seed (its atomic and lock chains); twelve
    average that down to a few percent.  Sixty-four locks keep the
    handoffs while bounding their chains."""
    cores = 16 if tiny else 256
    count = 2 if tiny else 12
    ops_per_core = 4 if tiny else 8
    ops = []
    for i in range(count):
        seed = rng.randrange(1 << 30)
        ops.append(SimOp(
            f"stress-{i}", paper_config(cores), "gl",
            lambda seed=seed: StressWorkload(
                ops_per_core=ops_per_core, barriers=3, locks=64,
                seed=seed)))
    return ops


# ---------------------------------------------------------------------- #
# The sweep: executor, result cache and model checker
# ---------------------------------------------------------------------- #
class SweepWorkload:
    """A mini-sweep plus verify shards through ``ParallelRunner``, an
    all-hit warm rerun of the same specs, and two in-process
    explorations."""

    name = "sweep"

    def __init__(self, rng: random.Random, tiny: bool):
        self.jobs = min(2, os.cpu_count() or 1)
        self.tiny = tiny
        count = 2 if tiny else 24
        cores = (4, 8, 16)
        self.run_specs: list[tuple[str, RunSpec]] = []
        for i in range(count):
            n = cores[i % len(cores)]
            seed = rng.randrange(1 << 30)
            self.run_specs.append((f"stress-{i}-{n}", RunSpec.make(
                StressWorkload(ops_per_core=4 if tiny else 12, barriers=2,
                               seed=seed), "gl", num_cores=n)))
            self.run_specs.append((f"synth-dsw-{i}-{n}", RunSpec.make(
                SyntheticBarrierWorkload(iterations=2), "dsw",
                num_cores=n)))
        mesh, depth = ((2, 2), 1) if tiny else ((2, 3), 2)
        prefixes, cex = verify.shard_prefixes(verify.GLBarrierModel(*mesh),
                                              depth)
        if cex is not None:
            raise RuntimeError(f"shard prefixes hit a violation: {cex}")
        self.shards = [verify.VerifyShardSpec(*mesh, prefix=p)
                       for p in prefixes]
        self.specs = [s for _, s in self.run_specs] + self.shards
        self.names = ([n for n, _ in self.run_specs]
                      + [f"shard-{i}" for i in range(len(self.shards))])
        self._reference: dict[str, str] | None = None
        self.serial_s = 0.0

    def _models(self):
        if self.tiny:
            return (verify.GLBarrierModel(2, 2),
                    verify.CollectiveModel(2, 2, "sum", width=1))
        return (verify.GLBarrierModel(3, 3, episodes=2),
                verify.CollectiveModel(2, 4, "sum", width=2))

    def setup(self) -> None:
        self._models()

    def reference(self) -> dict[str, str] | None:
        return self._reference

    def warmup(self) -> list[dict]:
        """Run every spec serially in this process, with the workload's
        own ``verify()``, to get reference digests; then one discarded
        pass."""
        timer = Timer(calibrated=False)
        outcomes = []
        reference = {}
        for name, spec in self.run_specs:
            def simulate(spec=spec):
                chip = CMP(spec.config, barrier=spec.barrier)
                return chip, chip.run(spec.workload,
                                      max_events=spec.max_events)
            try:
                chip, result = timer.call(simulate)
                spec.workload.verify(chip)
                outcome = sim_outcome(name, result)
                reference[name] = outcome["digest"]
            except Exception as exc:  # noqa: BLE001 - counted as failed op
                outcome = failed_outcome(name, exc)
            outcomes.append(outcome)
        for name, shard in zip(self.names[len(self.run_specs):],
                               self.shards):
            try:
                outcome = self._shard_outcome(name, timer.call(
                    shard.execute))
            except Exception as exc:  # noqa: BLE001 - counted as failed op
                outcome = failed_outcome(name, exc)
            outcomes.append(outcome)
        self.serial_s = timer.raw_s
        self._reference = reference
        return outcomes + self.run_pass().outcomes

    @staticmethod
    def _shard_outcome(name: str, res) -> dict:
        return verify_outcome(
            name, states=res.states, transitions=res.transitions,
            proved=res.violation is None and not res.capped,
            ticks=res.max_completion_ticks)

    def _batch_outcomes(self, results: list) -> list[dict]:
        outcomes = []
        for name, res in zip(self.names, results):
            if res is None:
                outcomes.append(failed_outcome(
                    name, RuntimeError("no result")))
            elif name.startswith("shard-"):
                outcomes.append(self._shard_outcome(name, res))
            else:
                outcomes.append(sim_outcome(name, res))
        return outcomes

    def _executor(self, timer: Timer, extra: dict) -> list[dict]:
        """Cold run and all-hit warm rerun of every spec, on a fresh
        result cache."""
        cache_dir = tempfile.mkdtemp(prefix="sweep-cache-")
        try:
            cold = ParallelRunner(jobs=self.jobs,
                                  cache=ResultCache(cache_dir))
            start = timer.raw_s
            cold_results = timer.call(cold.run, self.specs)
            warm = ParallelRunner(jobs=self.jobs,
                                  cache=ResultCache(cache_dir))
            middle = timer.raw_s
            warm_results = timer.call(warm.run, self.specs)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        extra.update(cold_s=middle - start, warm_s=timer.raw_s - middle,
                     hit_ratio=warm.hits / len(self.specs),
                     specs=len(self.specs), jobs=self.jobs,
                     sim_cycles=sum(r.total_cycles for r in
                                    cold_results[:len(self.run_specs)]
                                    if r is not None))
        outcomes = self._batch_outcomes(cold_results)
        warm_outcomes = self._batch_outcomes(warm_results)
        for c, w in zip(outcomes, warm_outcomes):
            if w["error"] is None and w != c:
                w["error"] = "warm rerun differs from the cold run"
            w["cached"] = True
        if warm.hits != len(self.specs):
            warm_outcomes[0]["error"] = (
                f"warm rerun hit {warm.hits}/{len(self.specs)} specs")
        return outcomes + warm_outcomes

    def _explorations(self, timer: Timer, extra: dict) -> list[dict]:
        gl_model, coll_model = self._models()
        start = timer.raw_s
        gl = timer.call(verify.explore, gl_model)
        coll = timer.call(verify.explore_collective, coll_model)
        extra.update(verify_s=timer.raw_s - start,
                     verify_transitions=gl.transitions + coll.transitions)
        return [
            verify_outcome(
                "explore-gl", states=gl.states, transitions=gl.transitions,
                proved=(not gl.capped and all(
                    v == verify.PROVED for v in gl.properties.values())),
                ticks=gl.max_completion_ticks),
            verify_outcome(
                "explore-collective", states=coll.states,
                transitions=coll.transitions,
                proved=not coll.capped and coll.ok, ticks=None)]

    def run_pass(self, timer: Timer | None = None) -> PassResult:
        timer = timer or Timer()
        outcomes: list[dict] = []
        extra: dict = {}
        for part in (self._executor, self._explorations):
            try:
                outcomes += part(timer, extra)
            except Exception as exc:  # noqa: BLE001 - counted as failed op
                outcomes.append(failed_outcome(part.__name__, exc))
        return PassResult(raw_s=timer.raw_s, wall_s=timer.norm_s,
                          outcomes=outcomes,
                          sim_cycles=extra.get("sim_cycles", 0),
                          extra=extra)


# ---------------------------------------------------------------------- #
def build(name: str, seed: int, tiny: bool = False):
    """The workload *name* with inputs derived from *seed*."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; "
                         f"choose from {WORKLOADS}")
    rng = random.Random(f"{name}:{seed}")
    if name == "sweep":
        return SweepWorkload(rng, tiny)
    make = {"paper32": _paper32, "fabric256": _fabric256,
            "stress256": _stress256}[name]
    return SimWorkload(name, make(rng, tiny))
