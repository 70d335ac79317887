"""Configuration dataclasses for the simulated CMP.

The defaults reproduce Table 1 of the paper ("CMP baseline configuration"):

=====================  =============================
Number of cores        32
Core                   3 GHz, in-order 2-way model
Cache line size        64 bytes
L1 I/D-cache           32 KB, 4-way, 1 cycle
L2 cache (per core)    256 KB, 4-way, 6+2 cycles
Memory access time     400 cycles
Network configuration  2D-mesh
Network bandwidth      75 GB/s
Link width             75 bytes
=====================  =============================

All latencies are in core clock cycles.  Every config object validates its
fields eagerly so that a bad experiment setup fails at construction time,
not hours into a simulation run.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields, replace
from typing import TYPE_CHECKING, ClassVar

from .errors import ConfigError
from ..faults.plan import FaultPlan

if TYPE_CHECKING:
    from ..collectives.config import CollectiveConfig


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _default_collectives() -> "CollectiveConfig":
    # Deferred import: repro.collectives pulls in the gline package,
    # which imports this module back for GLineConfig.
    from ..collectives.config import CollectiveConfig
    return CollectiveConfig()


def mesh_dims(num_cores: int) -> tuple[int, int]:
    """Return (rows, cols) of the most-square 2D mesh holding *num_cores*.

    Prefers the factorization closest to a square, with ``cols >= rows``
    (the paper's meshes are 4x4, 4x8 etc.).  Raises :class:`ConfigError`
    for non-positive sizes.
    """
    _require(num_cores >= 1, f"num_cores must be >= 1, got {num_cores}")
    best: tuple[int, int] | None = None
    for r in range(1, int(math.isqrt(num_cores)) + 1):
        if num_cores % r == 0:
            best = (r, num_cores // r)
    if best is None:  # prime > isqrt loop can't happen; appease type checker
        best = (1, num_cores)
    return best


class _SerializableConfig:
    """Flat-field dict serialization shared by the leaf config classes.

    ``to_dict``/``from_dict`` are the cache-key and IPC format of
    :mod:`repro.exec`: the round trip must be lossless and ``to_dict``
    a fixed point, which holds because every field is a JSON primitive.
    """

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict):
        names = {f.name for f in fields(cls)}
        unknown = set(data) - names
        if unknown:
            raise ConfigError(
                f"{cls.__name__}.from_dict: unknown fields {sorted(unknown)}")
        return cls(**data)


@dataclass(frozen=True)
class CacheConfig(_SerializableConfig):
    """Geometry and timing of one cache level."""

    size_bytes: int
    assoc: int
    line_bytes: int = 64
    #: Access latency in cycles (hit latency).
    latency: int = 1
    #: Extra cycles added on top of ``latency`` (the paper's L2 is "6+2":
    #: 6-cycle access plus 2 cycles of tag/interconnect overhead).
    extra_latency: int = 0

    def __post_init__(self) -> None:
        _require(self.size_bytes > 0, "cache size must be positive")
        _require(self.assoc >= 1, "associativity must be >= 1")
        _require(self.line_bytes > 0 and (self.line_bytes & (self.line_bytes - 1)) == 0,
                 "line size must be a positive power of two")
        _require(self.size_bytes % (self.assoc * self.line_bytes) == 0,
                 "cache size must be a multiple of assoc * line size")
        _require(self.latency >= 0 and self.extra_latency >= 0,
                 "latencies must be non-negative")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.assoc * self.line_bytes)

    @property
    def total_latency(self) -> int:
        return self.latency + self.extra_latency


@dataclass(frozen=True)
class NocConfig(_SerializableConfig):
    """2D-mesh network-on-chip parameters.

    The timing model is per-hop: a message pays ``router_latency`` +
    ``link_latency`` per hop, plus serialization (``ceil(size/link width)``
    cycles) on each traversed link, with links modelled as serially-occupied
    resources (contention shows up as waiting for the link to free).
    """

    rows: int
    cols: int
    #: Router pipeline depth per hop, cycles.
    router_latency: int = 3
    #: Wire propagation per hop, cycles.
    link_latency: int = 1
    #: Link width in bytes (Table 1: 75 bytes -- a full cache line + header
    #: fits in a single flit).
    link_width_bytes: int = 75
    #: Control-message size in bytes (requests, invalidations, acks).
    ctrl_msg_bytes: int = 8
    #: Data-message size in bytes (cache line + header).
    data_msg_bytes: int = 72
    #: Whether link contention is modelled (serialization queueing).
    model_contention: bool = True
    #: Timing model: "hop" (per-hop latency + link serialization, the
    #: default) or "vct" (flit-accurate virtual cut-through with finite
    #: buffers and backpressure -- see repro.noc.vct).
    model: str = "hop"
    #: Input-buffer depth in flits for the "vct" model.
    vct_buffer_flits: int = 4

    def __post_init__(self) -> None:
        _require(self.rows >= 1 and self.cols >= 1, "mesh dims must be >= 1")
        _require(self.router_latency >= 0, "router_latency must be >= 0")
        _require(self.link_latency >= 1, "link_latency must be >= 1")
        _require(self.link_width_bytes >= 1, "link width must be >= 1")
        _require(self.ctrl_msg_bytes >= 1 and self.data_msg_bytes >= 1,
                 "message sizes must be >= 1")
        _require(self.model in ("hop", "vct"),
                 f"unknown NoC model {self.model!r}")
        _require(self.vct_buffer_flits >= 1, "vct_buffer_flits must be >= 1")

    @property
    def num_tiles(self) -> int:
        return self.rows * self.cols

    def flits(self, size_bytes: int) -> int:
        """Number of link-width flits needed to carry *size_bytes*."""
        return max(1, -(-size_bytes // self.link_width_bytes))


@dataclass(frozen=True)
class GLineConfig(_SerializableConfig):
    """Parameters of the dedicated G-line barrier network.

    ``max_transmitters`` reflects the electrical constraint reported in the
    paper (each G-line supports up to six transmitters and one receiver,
    hence a maximum 7x7 mesh per network).  ``entry_overhead`` models the
    software cost of invoking the barrier through a library call: the paper
    measures 13 cycles end-to-end instead of the theoretical 4 and
    attributes the difference to the simulator's application library, so the
    default of 9 reproduces that observation.
    """

    #: 1-bit transmission latency across one dimension, cycles.
    line_latency: int = 1
    #: Maximum simultaneous transmitters distinguishable by S-CSMA.
    max_transmitters: int = 6
    #: Cycles to write bar_reg (the mov instruction).
    barreg_write_cycles: int = 1
    #: Library-call overhead added around the hardware operation.  The
    #: default (8) plus the bar_reg write (1) plus the 4-cycle network
    #: reproduces the 13-cycle end-to-end barrier the paper measures for
    #: GL on the synthetic benchmark.
    entry_overhead: int = 8
    #: Number of independent barrier contexts (space multiplexing
    #: extension; the paper's base design provides 1).
    num_barriers: int = 1
    #: Watchdog budget in cycles: once every core has arrived, the
    #: gather+release must finish within this many cycles or the watchdog
    #: intervenes (retry, then failover).  0 disables all hardening --
    #: the default, so the paper-faithful network is untouched.
    watchdog_budget: int = 0
    #: Bounded retries before the watchdog fails the episode over to the
    #: software fallback barrier.
    watchdog_retries: int = 2
    #: Optional second budget measured from the *first* arrival of an
    #: episode; catches episodes that can never complete because cores
    #: are missing (fail-stop).  0 disables it.
    watchdog_episode_budget: int = 0
    #: Software barrier the chip falls back to when a G-line network is
    #: quarantined: "csw" (centralized) or "dsw" (combining tree).
    failover_barrier: str = "csw"
    #: Self-healing recovery (repro.gline.recovery): when True, a watchdog
    #: FAILOVER degrades the network instead of quarantining it forever --
    #: idle-cycle probes with exponential backoff re-admit the wires
    #: through a probation period with a software shadow cross-check.
    #: Off by default, so failover stays terminal exactly as before.
    recovery_enabled: bool = False
    #: Cycles of backoff before the first probe after a degrade.
    recovery_probe_interval: int = 64
    #: Multiplier applied to the backoff after every failed probe or
    #: flapped re-admission.
    recovery_backoff_factor: int = 2
    #: Upper bound on the probe backoff, cycles.
    recovery_max_backoff: int = 4096
    #: Probe attempts per degraded episode before escalating to
    #: permanent quarantine.
    recovery_max_probes: int = 6
    #: Barriers run under the software shadow cross-check after a
    #: re-admission before the network is declared HEALTHY again.
    recovery_probation_barriers: int = 4
    #: Failed re-admissions (probation trips) before the network is
    #: permanently quarantined (flap damping).
    recovery_max_flaps: int = 3
    #: Hierarchical meshes only: degrade *per segment* -- a quarantined
    #: cluster completes over a software segment cohort that still joins
    #: the chip-wide G-line barrier, so healthy clusters stay on
    #: hardware.  Off by default (any quarantined level degrades the
    #: whole chip, the pre-recovery behaviour).
    segment_failover: bool = False

    def __post_init__(self) -> None:
        _require(self.line_latency >= 1, "line_latency must be >= 1")
        _require(self.max_transmitters >= 1, "max_transmitters must be >= 1")
        _require(self.barreg_write_cycles >= 0, "barreg_write_cycles >= 0")
        _require(self.entry_overhead >= 0, "entry_overhead must be >= 0")
        _require(self.num_barriers >= 1, "num_barriers must be >= 1")
        _require(self.watchdog_budget >= 0, "watchdog_budget must be >= 0")
        _require(self.watchdog_retries >= 0, "watchdog_retries must be >= 0")
        _require(self.watchdog_episode_budget >= 0,
                 "watchdog_episode_budget must be >= 0")
        _require(self.failover_barrier in ("csw", "dsw"),
                 f"failover_barrier must be 'csw' or 'dsw', "
                 f"got {self.failover_barrier!r}")
        _require(not self.recovery_enabled or self.watchdog_budget > 0,
                 "recovery_enabled requires a hardened network "
                 "(watchdog_budget > 0)")
        _require(self.recovery_probe_interval >= 1,
                 "recovery_probe_interval must be >= 1")
        _require(self.recovery_backoff_factor >= 1,
                 "recovery_backoff_factor must be >= 1")
        _require(self.recovery_max_backoff >= self.recovery_probe_interval,
                 "recovery_max_backoff must be >= recovery_probe_interval")
        _require(self.recovery_max_probes >= 1,
                 "recovery_max_probes must be >= 1")
        _require(self.recovery_probation_barriers >= 1,
                 "recovery_probation_barriers must be >= 1")
        _require(self.recovery_max_flaps >= 1,
                 "recovery_max_flaps must be >= 1")


@dataclass(frozen=True)
class CoreConfig(_SerializableConfig):
    """In-order core model parameters."""

    #: Clock frequency, used only for reporting (all timing is in cycles).
    freq_ghz: float = 3.0
    #: Issue width of the paper's 2-way in-order core.  Only Table 1's
    #: renderer reads it: operation streams issue one at a time.
    issue_width: int = 2

    def __post_init__(self) -> None:
        _require(self.freq_ghz > 0, "freq_ghz must be positive")
        _require(self.issue_width >= 1, "issue_width must be >= 1")


@dataclass(frozen=True)
class CMPConfig:
    """Full chip configuration (Table 1 defaults)."""

    num_cores: int = 32
    core: CoreConfig = field(default_factory=CoreConfig)
    line_bytes: int = 64
    l1: CacheConfig = field(default_factory=lambda: CacheConfig(
        size_bytes=32 * 1024, assoc=4, line_bytes=64, latency=1))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(
        size_bytes=256 * 1024, assoc=4, line_bytes=64, latency=6,
        extra_latency=2))
    memory_latency: int = 400
    noc: NocConfig = field(default_factory=lambda: NocConfig(rows=4, cols=8))
    gline: GLineConfig = field(default_factory=GLineConfig)
    #: G-line collective engine (repro.collectives); disabled by default,
    #: so barrier-only chips build byte-identical to pre-collective runs.
    collectives: "CollectiveConfig" = field(
        default_factory=_default_collectives)
    #: Fault-injection schedule (repro.faults); all-zero = disabled.
    faults: FaultPlan = field(default_factory=FaultPlan)
    #: Key of the event engine in ``repro.sim.BACKENDS``.  A class
    #: constant, not a field: there is one engine, so it is neither
    #: settable nor serialized (old dicts that carry it still load).
    sim_backend: ClassVar[str] = "heap"

    def __post_init__(self) -> None:
        _require(self.num_cores >= 1, "num_cores must be >= 1")
        _require(self.memory_latency >= 1, "memory_latency must be >= 1")
        _require(self.l1.line_bytes == self.line_bytes,
                 "L1 line size must match chip line size")
        _require(self.l2.line_bytes == self.line_bytes,
                 "L2 line size must match chip line size")
        _require(self.noc.num_tiles == self.num_cores,
                 f"mesh {self.noc.rows}x{self.noc.cols} does not hold "
                 f"{self.num_cores} cores")

    @classmethod
    def for_cores(cls, num_cores: int, **overrides) -> "CMPConfig":
        """Build a Table-1 config resized to *num_cores* (auto mesh)."""
        rows, cols = mesh_dims(num_cores)
        noc = overrides.pop("noc", None) or NocConfig(rows=rows, cols=cols)
        return cls(num_cores=num_cores, noc=noc, **overrides)

    def with_(self, **overrides) -> "CMPConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)

    def to_dict(self) -> dict:
        """Nested plain-dict form (cache-key / worker-IPC format)."""
        return {
            "num_cores": self.num_cores,
            "core": self.core.to_dict(),
            "line_bytes": self.line_bytes,
            "l1": self.l1.to_dict(),
            "l2": self.l2.to_dict(),
            "memory_latency": self.memory_latency,
            "noc": self.noc.to_dict(),
            "gline": self.gline.to_dict(),
            "collectives": self.collectives.to_dict(),
            "faults": self.faults.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CMPConfig":
        from ..collectives.config import CollectiveConfig
        faults = data.get("faults")
        coll = data.get("collectives")
        return cls(num_cores=data["num_cores"],
                   core=CoreConfig.from_dict(data["core"]),
                   line_bytes=data["line_bytes"],
                   l1=CacheConfig.from_dict(data["l1"]),
                   l2=CacheConfig.from_dict(data["l2"]),
                   memory_latency=data["memory_latency"],
                   noc=NocConfig.from_dict(data["noc"]),
                   gline=GLineConfig.from_dict(data["gline"]),
                   collectives=CollectiveConfig.from_dict(coll)
                   if coll is not None else CollectiveConfig(),
                   faults=FaultPlan.from_dict(faults) if faults is not None
                   else FaultPlan())

    def table1(self) -> list[tuple[str, str]]:
        """Render the configuration as (parameter, value) rows, Table-1 style."""
        l1kb = self.l1.size_bytes // 1024
        l2kb = self.l2.size_bytes // 1024
        return [
            ("Number of cores", str(self.num_cores)),
            ("Core", f"{self.core.freq_ghz:g}GHz, in-order "
                     f"{self.core.issue_width}-way model"),
            ("Cache line size", f"{self.line_bytes} Bytes"),
            ("L1 I/D-Cache", f"{l1kb}KB, {self.l1.assoc}-way, "
                             f"{self.l1.latency} cycle"),
            ("L2 Cache (per core)", f"{l2kb}KB, {self.l2.assoc}-way, "
                                    f"{self.l2.latency}+{self.l2.extra_latency} cycles"),
            ("Memory access time", f"{self.memory_latency} cycles"),
            ("Network configuration", "2D-mesh "
                                      f"({self.noc.rows}x{self.noc.cols})"),
            ("Link width", f"{self.noc.link_width_bytes} bytes"),
        ]
