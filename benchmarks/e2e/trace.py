"""Traced run of the end-to-end benchmark: host time split by layer.

Spans are recorded from outside the simulator, around calls into each
layer's public entry points, while the traced run is active:

* the default engine backend is replaced in ``repro.sim.BACKENDS`` by a
  dynamic subclass whose ``schedule``/``schedule_at`` wrap every event
  callback in a span of the layer that owns it (the module of the bound
  method's class, or of the function), and whose ``run`` is the ``sim``
  span -- its self time is the engine's own dispatch loop;
* the entry points in :data:`METHOD_ENTRY_POINTS`, every ``arrive`` of
  the G-line and collective packages, and the model-checker functions in
  :data:`FUNCTION_ENTRY_POINTS` are wrapped at class or module level.

A layer's self time is its spans' duration minus the time of the spans
nested inside them.  The whole pass is the ``other`` root span, so the
self times sum to the traced wall time.  Everything is restored when the
run ends.  An entry point that no longer exists is reported as absent,
and its layer is then timed only through the engine's callbacks.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
from contextlib import contextmanager
from typing import Callable, Iterator

LAYERS = ("sim", "noc", "mem.l1", "mem.directory", "mem.memory", "cpu",
          "gline", "collectives", "setup", "exec", "verify", "other")

#: Module prefix of a callback's owner -> layer; first match wins.  The
#: workload and synchronization-library generators run inside the core,
#: so their time is the core's.
MODULE_LAYERS = (
    ("repro.sim", "sim"), ("repro.noc", "noc"),
    ("repro.mem.l1", "mem.l1"), ("repro.mem.directory", "mem.directory"),
    ("repro.mem.memory", "mem.memory"), ("repro.cpu", "cpu"),
    ("repro.sync", "cpu"), ("repro.workloads", "cpu"),
    ("repro.gline", "gline"), ("repro.collectives", "collectives"),
    ("repro.chip", "setup"), ("repro.exec", "exec"),
    ("repro.verify", "verify"),
)

#: (module, class, methods, layer) wrapped at class level.
METHOD_ENTRY_POINTS = (
    ("repro.mem.l1", "L1Cache",
     ("load", "store", "atomic", "watch", "receive"), "mem.l1"),
    ("repro.mem.directory", "HomeController", ("receive",),
     "mem.directory"),
    ("repro.mem.memory", "MemoryController", ("access",), "mem.memory"),
    ("repro.noc.network", "Network", ("send",), "noc"),
    ("repro.cpu.core", "Core", ("_advance",), "cpu"),
    ("repro.exec.parallel", "ParallelRunner", ("run",), "exec"),
    ("repro.chip.cmp", "CMP", ("__init__",), "setup"),
    ("repro.workloads.base", "Workload", ("build",), "setup"),
    ("repro.verify.model", "GLBarrierModel", ("__init__",), "setup"),
    ("repro.verify.collectives", "CollectiveModel", ("__init__",),
     "setup"),
)

#: (module, function, layer), replaced wherever a module holds them.
FUNCTION_ENTRY_POINTS = (
    ("repro.verify.explore", "explore", "verify"),
    ("repro.verify.collectives", "explore_collective", "verify"),
)

#: Packages whose classes' ``arrive`` methods are wrapped.
ARRIVE_PACKAGES = (("repro.gline", "gline"),
                   ("repro.collectives", "collectives"))

#: Marks a wrapped entry point: the engine schedules it unwrapped, since
#: it opens its own span.
_TRACED = "_e2e_traced"


def module_layer(module: str) -> str:
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


class LayerProfiler:
    """A stack of open spans; per layer, self time and span count."""

    def __init__(self) -> None:
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self._stack: list[list] = []
        self._owner_layers: dict[object, str] = {}

    def enter(self, layer: str) -> None:
        self.calls[layer] += 1
        self._stack.append([layer, time.perf_counter(), 0.0])

    def leave(self) -> None:
        layer, start, nested = self._stack.pop()
        elapsed = time.perf_counter() - start
        self.self_s[layer] += elapsed - nested
        if self._stack:
            self._stack[-1][2] += elapsed

    def span(self, layer: str, fn: Callable, *args, **kwargs):
        self.enter(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self.leave()

    def layer_of(self, callback: Callable) -> str | None:
        """Layer of *callback*'s owner, or ``None`` for a wrapped entry
        point."""
        func = getattr(callback, "__func__", callback)
        if getattr(func, _TRACED, False):
            return None
        owner = getattr(callback, "__self__", None)
        code = getattr(func, "__code__", None)
        # Keyed by class or code object, never by a per-event callable.
        key = type(owner) if owner is not None else code or type(func)
        layer = self._owner_layers.get(key)
        if layer is None:
            module = (type(owner).__module__ if owner is not None
                      else func.__module__ if code is not None
                      else type(func).__module__)
            layer = self._owner_layers[key] = module_layer(module or "")
        return layer


def traced_engine_class(base: type, prof: LayerProfiler) -> type:
    """A subclass of engine class *base* that spans every callback."""
    layer_of, enter, leave = prof.layer_of, prof.enter, prof.leave

    def dispatch(layer, callback, args):
        enter(layer)
        try:
            callback(*args)
        finally:
            leave()

    def schedule(self, delay, callback, *args, priority=0):
        layer = layer_of(callback)
        if layer is None:
            return base.schedule(self, delay, callback, *args,
                                 priority=priority)
        return base.schedule(self, delay, dispatch, layer, callback, args,
                             priority=priority)

    def schedule_at(self, at, callback, *args, priority=0):
        layer = layer_of(callback)
        if layer is None:
            return base.schedule_at(self, at, callback, *args,
                                    priority=priority)
        return base.schedule_at(self, at, dispatch, layer, callback, args,
                                priority=priority)

    def run(self, *args, **kwargs):
        enter("sim")
        try:
            return base.run(self, *args, **kwargs)
        finally:
            leave()

    return type(f"Traced{base.__name__}", (base,),
                {"schedule": schedule, "schedule_at": schedule_at,
                 "run": run})


def _wrap(prof: LayerProfiler, layer: str, fn: Callable) -> Callable:
    enter, leave = prof.enter, prof.leave

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        enter(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            leave()

    setattr(traced, _TRACED, True)
    return traced


def _import(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _arrive_classes(package: str) -> list[type]:
    pkg = _import(package)
    if pkg is None:
        return []
    found = []
    for info in pkgutil.iter_modules(pkg.__path__, package + "."):
        module = _import(info.name)
        if module is None:
            continue
        for obj in vars(module).values():
            if (isinstance(obj, type) and obj.__module__ == info.name
                    and "arrive" in vars(obj)):
                found.append(obj)
    return found


@contextmanager
def instrumented(prof: LayerProfiler) -> Iterator[list[str]]:
    """Install the spans; yields the entry points found absent."""
    from repro import sim
    from repro.common.params import CMPConfig

    undo: list[Callable[[], None]] = []
    absent: list[str] = []

    def patch(holder, name: str, value) -> None:
        had = name in vars(holder)
        old = vars(holder).get(name)
        setattr(holder, name, value)
        undo.append(lambda: setattr(holder, name, old) if had
                    else delattr(holder, name))

    try:
        backend = CMPConfig().sim_backend
        engine_class = sim.BACKENDS[backend]
        sim.BACKENDS[backend] = traced_engine_class(engine_class, prof)
        undo.append(lambda: sim.BACKENDS.__setitem__(backend, engine_class))

        for module, cls_name, methods, layer in METHOD_ENTRY_POINTS:
            cls = getattr(_import(module), cls_name, None)
            for method in methods:
                fn = getattr(cls, method, None)
                if fn is None:
                    absent.append(f"{module}.{cls_name}.{method}")
                    continue
                patch(cls, method, _wrap(prof, layer, fn))
        for package, layer in ARRIVE_PACKAGES:
            classes = _arrive_classes(package)
            if not classes:
                absent.append(f"{package}.*.arrive")
            for cls in classes:
                patch(cls, "arrive", _wrap(prof, layer, vars(cls)["arrive"]))
        for module, name, layer in FUNCTION_ENTRY_POINTS:
            fn = getattr(_import(module), name, None)
            if fn is None:
                absent.append(f"{module}.{name}")
                continue
            wrapped = _wrap(prof, layer, fn)
            for holder in list(sys.modules.values()):
                if getattr(holder, "__dict__", {}).get(name) is fn:
                    patch(holder, name, wrapped)
        yield absent
    finally:
        for step in reversed(undo):
            step()


def traced_pass(workload, timer_factory: Callable):
    """One pass of *workload* under tracing.

    Returns ``(wall_s, pass_result, profiler, absent_entry_points)``."""
    prof = LayerProfiler()
    with instrumented(prof) as absent:
        start = time.perf_counter()
        result = prof.span("other", workload.run_pass, timer_factory())
        wall = time.perf_counter() - start
    return wall, result, prof, absent


def absent_layers(absent: list[str]) -> list[str]:
    """Layers none of whose entry points exist any more."""
    points: dict[str, list[str]] = {}
    for module, cls_name, methods, layer in METHOD_ENTRY_POINTS:
        points.setdefault(layer, []).extend(
            f"{module}.{cls_name}.{m}" for m in methods)
    for package, layer in ARRIVE_PACKAGES:
        points.setdefault(layer, []).append(f"{package}.*.arrive")
    for module, name, layer in FUNCTION_ENTRY_POINTS:
        points.setdefault(layer, []).append(f"{module}.{name}")
    return sorted(layer for layer, names in points.items()
                  if all(n in absent for n in names))


def layer_metrics(prof: LayerProfiler, traced_wall: float, traced,
                  plain_wall: float, plain, serial_s: float) -> dict:
    """Per-layer metrics of one traced pass.

    Host times and span counts come from *prof*; simulated counts from
    the traced pass's outcomes (cache hits are not simulations and are
    skipped); executor and model-checker timings from the untraced pass
    *plain*, timed from outside."""
    out: dict[str, float] = {}
    total = sum(prof.self_s.values()) or 1.0
    for layer in LAYERS:
        out[f"{layer}.self_s"] = prof.self_s[layer]
        out[f"{layer}.share"] = prof.self_s[layer] / total
        out[f"{layer}.calls"] = prof.calls[layer]
    fresh = [o for o in traced.outcomes if not o.get("cached")]
    sims = [o for o in fresh if o["kind"] == "sim"]

    def total_of(key: str) -> int:
        return sum(o[key] for o in sims)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    events, cycles = total_of("events"), total_of("cycles")
    episodes = total_of("episodes")
    out.update({
        "sim.events": events,
        "sim.events_per_kcycle": ratio(events, cycles / 1000),
        "noc.messages": total_of("messages"),
        "noc.flit_hops": total_of("flit_hops"),
        "mem.l1.miss_ratio": ratio(total_of("l1_misses"),
                                   total_of("l1_accesses")),
        "mem.l1.invalidations": total_of("l1_invalidations"),
        "mem.directory.queued": total_of("dir_queued"),
        "mem.memory.accesses": total_of("mem_accesses"),
        "gline.toggles": total_of("gline_toggles"),
        "gline.barriers": total_of("gline_barriers"),
        "collectives.completed": total_of("collectives"),
        "barrier.episodes": episodes,
        "barrier.latency_cycles": ratio(total_of("latency_sum"), episodes),
        "barrier.s2_wait_per_episode": ratio(total_of("s2_wait"), episodes),
        "barrier.sync_per_episode": ratio(total_of("sync"), episodes),
        "verify.states": sum(o["states"] for o in fresh
                             if o["kind"] == "verify"),
        "verify.transitions": sum(o["transitions"] for o in fresh
                                  if o["kind"] == "verify"),
        "trace.wall_s": traced_wall,
        "trace.overhead_frac": ratio(traced_wall, plain_wall) - 1.0,
    })
    extra = plain.extra
    jobs = extra.get("jobs", 1)
    out.update({
        "exec.cold_s": extra.get("cold_s", 0.0),
        "exec.warm_s": extra.get("warm_s", 0.0),
        "exec.specs": extra.get("specs", 0),
        "exec.hit_ratio": extra.get("hit_ratio", 0.0),
        "exec.overhead_s": (extra["cold_s"] - serial_s / jobs
                            if "cold_s" in extra else 0.0),
        "verify.transitions_per_s": ratio(
            extra.get("verify_transitions", 0), extra.get("verify_s", 0.0)),
    })
    return out
