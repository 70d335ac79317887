"""Chip assembly: builds the full CMP and runs workloads on it.

Typical use::

    from repro import CMP, CMPConfig
    from repro.workloads import SyntheticBarrierWorkload

    chip = CMP(CMPConfig.for_cores(32), barrier="gl")
    result = chip.run(SyntheticBarrierWorkload(iterations=100))
    print(result.summary())
"""

from __future__ import annotations

from typing import Generator, Iterable

from ..collectives import (
    CollectiveNetwork, GLCollective, HierarchicalCollectiveNetwork,
    SoftwareAllReduce,
)
from ..collectives.library import CollectiveImpl
from ..common.errors import ConfigError, DeadlockError, SimulationError
from ..common.params import CMPConfig
from ..common.stats import StatsRegistry
from ..cpu.core import Core
from ..faults import FaultInjector
from ..gline.barrier import GLBarrier
from ..gline.context import Hierarchy, build_sync_contexts
from ..gline.hierarchical import HierarchicalGLineBarrier
from ..gline.network import GLineBarrierNetwork
from ..mem.address import AddressMap, Allocator
from ..mem.directory import HomeController
from ..mem.funcmem import FunctionalMemory
from ..mem.l1 import L1Cache
from ..mem.memory import MemoryController
from ..noc.network import Network
from ..obs import Observability
from ..sim import make_engine
from ..sync.accounting import BarrierAccounting
from ..sync.api import BarrierImpl
from ..sync.csw import CentralizedBarrier
from ..sync.dissemination import DisseminationBarrier
from ..sync.dsw import CombiningTreeBarrier
from ..sync.locks import TTSLock
from ..sync.tournament import TournamentBarrier
from .results import RunResult
from .tile import Tile

#: Names accepted by the ``barrier=`` argument.
BARRIER_KINDS = ("gl", "dsw", "csw", "csw-fa", "diss", "tour")


class CMP:
    """A simulated tiled chip multiprocessor."""

    def __init__(self, config: CMPConfig | None = None,
                 barrier: str | BarrierImpl = "gl",
                 obs: Observability | None = None):
        self.config = config or CMPConfig()
        #: Observability bundle (repro.obs).  Deliberately NOT part of
        #: CMPConfig: a traced run and an untraced run share the same
        #: exec-cache key and must produce identical results.
        self.obs = None
        self.engine = make_engine(self.config.sim_backend)
        self.stats = StatsRegistry(self.config.num_cores)
        self.funcmem = FunctionalMemory()
        self.amap = AddressMap(self.config.num_cores, self.config.line_bytes)
        self.allocator = Allocator(self.amap)
        if self.config.noc.model == "vct":
            from ..noc.vct import VCTNetwork
            self.network = VCTNetwork(self.engine, self.stats,
                                      self.config.noc,
                                      self.config.noc.vct_buffer_flits)
        else:
            self.network = Network(self.engine, self.stats,
                                   self.config.noc)
        self.lock_alg = TTSLock()
        self.accounting = BarrierAccounting(self.stats,
                                            self.config.num_cores)
        #: One shared fault injector, or None when the plan is all-zero --
        #: a disabled plan must add zero events and zero per-event checks
        #: beyond the attribute tests, keeping fault-free runs identical.
        self.injector = None
        if self.config.faults.enabled:
            self.injector = FaultInjector(self.config.faults, self.stats)
            self.network.injector = self.injector

        self.tiles: list[Tile] = []
        for t in range(self.config.num_cores):
            memctrl = MemoryController(self.engine, self.stats, t,
                                       self.config.memory_latency)
            home = HomeController(self.engine, self.stats, t,
                                  self.config.l2, self.config.noc,
                                  self.network, memctrl, self.amap)
            l1 = L1Cache(self.engine, self.stats, t, self.config.l1,
                         self.config.noc, self.network, self.funcmem,
                         self.amap)
            core = Core(self.engine, self.stats, t, l1, self.config.core)
            self.tiles.append(Tile(t, core, l1, home, memctrl))

        # Cross-wire the protocol agents: every controller shares one
        # peer list per kind, indexed by tile.
        homes = [tile.home for tile in self.tiles]
        l1s = [tile.l1 for tile in self.tiles]
        for tile in self.tiles:
            tile.home.l1s = l1s
            tile.l1.homes = homes

        self.barrier_impl = self._make_barrier(barrier)
        self.collective_impl = self._make_collective()
        for tile in self.tiles:
            tile.core.barrier_binding = self.barrier_impl
            tile.core.collective_binding = self.collective_impl
            tile.core.lock_binding = self.lock_alg
            tile.core.barrier_accounting = self.accounting
            tile.core.injector = self.injector
        if self.injector is not None:
            for net in self.sync_contexts:
                net.set_injector(self.injector)
        if obs is not None:
            self.set_obs(obs)

    # ------------------------------------------------------------------ #
    def set_obs(self, obs: Observability) -> None:
        """Thread an observability bundle through every layer.

        Instrumentation is strictly read-only -- it never schedules events
        or touches StatsRegistry -- so attaching a bundle cannot change
        simulation results."""
        self.obs = obs
        self.engine.tracer = obs.tracer
        self.network.tracer = obs.tracer
        self.network.metrics = obs.metrics
        for tile in self.tiles:
            for comp in (tile.core, tile.l1, tile.home, tile.memctrl):
                comp.tracer = obs.tracer
                comp.metrics = obs.metrics
            tile.core.flight = obs.flight
        for net in self.sync_contexts:
            net.set_obs(obs)

    # ------------------------------------------------------------------ #
    def _make_barrier(self, barrier: str | BarrierImpl) -> BarrierImpl:
        if isinstance(barrier, BarrierImpl):
            return barrier
        kind = barrier.lower()
        ncontexts = self.config.gline.num_barriers
        if kind == "gl":
            contexts = build_sync_contexts(
                GLineBarrierNetwork, HierarchicalGLineBarrier, self.engine,
                self.stats, self.config.noc.rows, self.config.noc.cols,
                self.config.gline, name="glnet", count=ncontexts)
            fallback = None
            if self.config.gline.watchdog_budget > 0:
                # Hardened mode: provision the software barrier the
                # watchdog fails quarantined episodes over to.
                fallback = self._make_barrier(
                    self.config.gline.failover_barrier)
            return GLBarrier(contexts, self.config.gline, fallback=fallback)
        if kind == "dsw":
            return CombiningTreeBarrier(
                self.allocator, list(range(self.config.num_cores)),
                num_contexts=ncontexts)
        if kind == "csw":
            return CentralizedBarrier(self.allocator,
                                      self.config.num_cores,
                                      num_contexts=ncontexts,
                                      variant="lock")
        if kind == "csw-fa":
            return CentralizedBarrier(self.allocator,
                                      self.config.num_cores,
                                      num_contexts=ncontexts,
                                      variant="fetchadd")
        if kind == "diss":
            return DisseminationBarrier(self.allocator,
                                        self.config.num_cores,
                                        num_contexts=ncontexts)
        if kind == "tour":
            return TournamentBarrier(self.allocator,
                                     self.config.num_cores,
                                     num_contexts=ncontexts)
        raise ConfigError(
            f"unknown barrier kind {barrier!r}; expected one of "
            f"{BARRIER_KINDS} or a BarrierImpl instance")

    def _make_collective(self) -> CollectiveImpl | None:
        """Build the collective engine per ``config.collectives``.

        Disabled (the default) constructs nothing at all -- no G-lines,
        no allocator traffic -- so barrier-only chips stay byte-identical
        to pre-collective builds."""
        cc = self.config.collectives
        if not cc.enabled:
            return None
        ncontexts = max(cc.num_contexts, cc.time_slots)
        if cc.backend == "sw":
            return SoftwareAllReduce(self.allocator, self.config.num_cores,
                                     num_contexts=ncontexts,
                                     value_width=cc.value_width)
        contexts = build_sync_contexts(
            CollectiveNetwork, HierarchicalCollectiveNetwork, self.engine,
            self.stats, self.config.noc.rows, self.config.noc.cols,
            self.config.gline, name="coll", count=cc.num_contexts,
            slots=cc.time_slots, coll_config=cc)
        fallback = None
        if cc.watchdog_budget > 0 or cc.integrity != "off":
            # Hardened mode: provision the software all-reduce the
            # watchdog -- or the integrity ladder's final rung -- fails
            # quarantined episodes over to.
            fallback = SoftwareAllReduce(self.allocator,
                                         self.config.num_cores,
                                         num_contexts=len(contexts),
                                         value_width=cc.value_width)
        return GLCollective(contexts,
                            entry_overhead=self.config.gline.entry_overhead,
                            fallback=fallback)

    # ------------------------------------------------------------------ #
    def reset_stats(self) -> None:
        """Zero all measurement state while keeping architectural state
        (cache contents, functional memory, barrier senses) intact.

        Use after a warm-up run so cold-start misses don't pollute the
        measured region -- the standard multiprocessor-simulation
        methodology (the paper's results are likewise steady-state)."""
        self.stats = StatsRegistry(self.config.num_cores)
        self.accounting.stats = self.stats
        self.network.stats = self.stats
        if self.injector is not None:
            self.injector.stats = self.stats
        for tile in self.tiles:
            tile.core.stats = self.stats
            tile.l1.stats = self.stats
            tile.home.stats = self.stats
            tile.memctrl.stats = self.stats
        for net in self.sync_contexts:
            net.set_stats(self.stats)

    def run_with_warmup(self, warmup_workload, workload, **kw) -> RunResult:
        """Run *warmup_workload* (discarding its statistics), then measure
        *workload* on the warmed chip."""
        self.run(warmup_workload, **kw)
        self.reset_stats()
        # Cores are finished; clear their run state for the measured pass.
        for tile in self.tiles:
            core = tile.core
            core.finished = False
            core.finish_time = None
            core._frames.clear()
            core._phase_stack.clear()
        return self.run(workload, **kw)

    # ------------------------------------------------------------------ #
    @property
    def sync_contexts(self) -> list:
        """Every G-line barrier and collective context on the chip."""
        return [net for impl in (self.barrier_impl, self.collective_impl)
                for net in getattr(impl, "networks", [])]

    @property
    def cores(self) -> list[Core]:
        return [tile.core for tile in self.tiles]

    @property
    def num_cores(self) -> int:
        return self.config.num_cores

    def _early_releases(self) -> list[str]:
        """The first early release of every G-line network that made one:
        a release that beat an arrival leaves that core an episode
        behind, which a later deadlock shows."""
        found = []
        for ctx in self.sync_contexts:
            for net in (ctx.levels if isinstance(ctx, Hierarchy) else [ctx]):
                if net.first_early_release is not None:
                    cycle, arrived = net.first_early_release
                    found.append(
                        f"{net.name} released early at cycle {cycle} with "
                        f"{arrived} of {net.num_cores} cores arrived")
        return found

    # ------------------------------------------------------------------ #
    def run(self, workload, *, max_cycles: int | None = None,
            max_events: int | None = None) -> RunResult:
        """Build *workload*'s per-core programs, execute them to completion
        and return the :class:`RunResult`.

        *workload* is anything with a ``build(chip) -> list[Generator]``
        method (see :mod:`repro.workloads`), or a plain list of per-core
        generators (one per core; ``None`` entries idle that core).
        """
        if hasattr(workload, "build"):
            programs = workload.build(self)
        else:
            programs = list(workload)
        if len(programs) != self.num_cores:
            raise ConfigError(
                f"workload built {len(programs)} programs for "
                f"{self.num_cores} cores")
        started = []
        for core, program in zip(self.cores, programs):
            if program is not None:
                core.start(program)
                started.append(core)
        if not started:
            raise ConfigError("workload started no programs")

        self.engine.run(until=max_cycles, max_events=max_events)

        blocked = tuple(c.cid for c in started if not c.finished)
        if blocked:
            if self.engine.pending() == 0:
                detail = ", ".join(
                    f"core {c.cid}: "
                    f"{type(c.pending_op).__name__ if c.pending_op is not None else 'not started'}"
                    + (" [fail-stopped]" if c.halted else "")
                    for c in started if not c.finished)
                message = (
                    f"simulation deadlocked at cycle {self.engine.now}: "
                    f"cores {list(blocked)} blocked with no pending events "
                    f"({detail}) -- barrier some core never reaches, or "
                    f"mismatched barrier counts")
                for early in self._early_releases():
                    message += f"; {early}"
                if self.obs is not None and self.obs.flight is not None:
                    # Post-mortem tail only when observability is on; the
                    # base message format stays stable otherwise.
                    tail = self.obs.flight.format_tail(blocked)
                    if tail:
                        message += "\n" + tail
                raise DeadlockError(message, blocked_cores=blocked)
            raise SimulationError(
                f"simulation hit its budget (max_cycles={max_cycles}, "
                f"max_events={max_events}) with cores {list(blocked)} "
                f"still running at cycle {self.engine.now}")

        total = max((c.finish_time or 0) for c in started)
        metrics = {}
        if self.obs is not None and self.obs.metrics is not None:
            metrics = self.obs.metrics.to_dict()
        return RunResult(total_cycles=total,
                         barrier_name=self.barrier_impl.name,
                         num_cores=self.num_cores,
                         stats=self.stats,
                         events_executed=self.engine.events_executed,
                         metrics=metrics)
