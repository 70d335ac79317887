"""Configuration of the G-line collective engine.

Lives beside the fabric (not in ``repro.common.params``) because
``CMPConfig`` embeds it -- importing the other way round would cycle.
The serialization contract matches the other leaf configs: flat JSON
primitives, lossless ``to_dict``/``from_dict`` round trip, eager
validation.

``enabled`` defaults to ``False`` and gates *all* construction: a chip
with collectives off builds no wires, allocates no fallback memory and
schedules no events, so every pre-existing run (and its exec-cache
entry and golden result) is byte-identical.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

from ..common.errors import ConfigError


@dataclass(frozen=True)
class CollectiveConfig:
    """Parameters of the collective fabric bound to a chip."""

    #: Master switch; everything below is inert while False.
    enabled: bool = False
    #: "gl" = G-line bit-serial fabric (with optional software failover);
    #: "sw" = pure software all-reduce over the NoC (the shootout
    #: baseline).
    backend: str = "gl"
    #: Operand width in bits; inputs are masked to this width.
    value_width: int = 8
    #: Independent in-flight operation contexts (``CollectiveOp.ident``
    #: selects one), each with its own wires, as barrier contexts are.
    num_contexts: int = 1
    #: Time multiplexing: >1 shares one physical wire budget between
    #: this many contexts by slot-interleaving their clocks, and is then
    #: the context count.  1 (or 0) replicates the wires per context
    #: (space multiplexing).
    time_slots: int = 1
    #: Hardening: once every core has arrived, the reduction must finish
    #: within this many cycles or the watchdog retries / fails over to
    #: the software NoC all-reduce.  0 disables hardening.
    watchdog_budget: int = 0
    #: Episode restarts (values are still latched in the col_regs) before
    #: the watchdog gives up and fails the episode over.
    watchdog_retries: int = 2
    #: Counting-line integrity mode ("off" | "echo" | "residue" |
    #: "vote"); see :mod:`repro.gline.integrity`.  "off" keeps the
    #: legacy round protocol bit-identical.
    integrity: str = "off"
    #: Per-stage round retries before a detected corruption escalates to
    #: the whole-operation rung of the recovery ladder.
    integrity_retry_budget: int = 3

    def __post_init__(self) -> None:
        if self.backend not in ("gl", "sw"):
            raise ConfigError(
                f"collectives backend must be 'gl' or 'sw', "
                f"got {self.backend!r}")
        if not (1 <= self.value_width <= 64):
            raise ConfigError("value_width must be in 1..64")
        if self.num_contexts < 1:
            raise ConfigError("num_contexts must be >= 1")
        if self.time_slots < 0:
            raise ConfigError("time_slots must be >= 0")
        if self.num_contexts > 1 and self.time_slots > 1:
            raise ConfigError(
                f"num_contexts={self.num_contexts} with time_slots="
                f"{self.time_slots}: time multiplexing fixes the context "
                f"count at time_slots, so num_contexts must be 1")
        if self.watchdog_budget < 0:
            raise ConfigError("watchdog_budget must be >= 0")
        if self.watchdog_retries < 0:
            raise ConfigError("watchdog_retries must be >= 0")
        from ..gline.integrity import INTEGRITY_MODES
        if self.integrity not in INTEGRITY_MODES:
            raise ConfigError(
                f"integrity must be one of {INTEGRITY_MODES}, "
                f"got {self.integrity!r}")
        if self.integrity_retry_budget < 0:
            raise ConfigError("integrity_retry_budget must be >= 0")

    def to_dict(self) -> dict[str, object]:
        # New fields are omitted at their defaults so legacy configs --
        # and every exec-cache fingerprint derived from them -- stay
        # byte-identical.
        data = asdict(self)
        if data["integrity"] == "off":
            del data["integrity"]
        if data["integrity_retry_budget"] == 3:
            del data["integrity_retry_budget"]
        return data

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "CollectiveConfig":
        names = {f.name for f in fields(cls)}
        unknown = set(data) - names
        if unknown:
            raise ConfigError(
                f"CollectiveConfig.from_dict: unknown fields "
                f"{sorted(unknown)}")
        return cls(**data)  # type: ignore[arg-type]
