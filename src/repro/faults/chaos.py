"""Chaos plan: seeded *process-level* failures for the executor.

Where :class:`~repro.faults.plan.FaultPlan` breaks the simulated hardware
(wires, packets, cores), :class:`ChaosPlan` breaks the machinery that
*runs* the simulations: it tells a supervised worker process to die, hang
or get "OOM-killed" before executing its spec, so the supervision layer in
:mod:`repro.exec.supervisor` -- deadlines, retries, quarantine, resume --
is itself testable end to end.

Determinism mirrors the fault injector: every roll is a pure function of
``(seed, token, attempt)`` hashed through SHA-256 (never the salted
built-in ``hash()``), where *token* is the supervisor's stable per-spec
dispatch ordinal.  The same seed therefore strikes the same runs on every
machine and every commit, which is what lets CI pin "worker N dies, the
retry succeeds, the figure still matches the golden numbers".

Chaos is opt-in twice over: the plan defaults to all-zero rates, and an
enabled plan is the only thing besides a timeout that moves a serial
batch off the inline path into a worker.  The ``REPRO_CHAOS``
environment variable (``"seed=3,kill=0.25,hang=0.1,oom=0.05"``) is the
CLI/CI entry point.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import asdict, dataclass, fields

#: Environment variable holding a chaos spec, e.g. ``seed=3,kill=0.25``.
CHAOS_ENV = "REPRO_CHAOS"

#: Chaos actions a worker can be told to take, in roll order.
KILL, HANG, OOM = "kill", "hang", "oom"


def _require(cond: bool, msg: str) -> None:
    if not cond:
        from ..common.errors import ConfigError
        raise ConfigError(msg)


def _fraction(seed: int, token: str, attempt: int) -> float:
    """Deterministic uniform [0, 1) draw for one (spec, attempt) pair."""
    digest = hashlib.sha256(f"{seed}:{token}:{attempt}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2 ** 64


@dataclass(frozen=True)
class ChaosPlan:
    """Seeded worker-failure schedule (all rates are probabilities)."""

    #: RNG seed; every (token, attempt) pair derives its own draw from it.
    seed: int = 0
    #: Probability a worker exits with a nonzero status before running.
    kill_rate: float = 0.0
    #: Probability a worker hangs (sleeps past any reasonable deadline).
    hang_rate: float = 0.0
    #: Probability a worker is SIGKILLed, mimicking the kernel OOM killer
    #: (negative exitcode, no exception, no goodbye).
    oom_rate: float = 0.0
    #: How long a hung worker sleeps; only a supervision deadline ends it.
    hang_seconds: float = 300.0

    def __post_init__(self) -> None:
        for name in ("kill_rate", "hang_rate", "oom_rate"):
            rate = getattr(self, name)
            _require(0.0 <= rate <= 1.0,
                     f"{name} must be in [0, 1], got {rate}")
        _require(self.kill_rate + self.hang_rate + self.oom_rate <= 1.0,
                 "kill_rate + hang_rate + oom_rate must be <= 1")
        _require(self.hang_seconds > 0, "hang_seconds must be > 0")

    # ------------------------------------------------------------------ #
    @property
    def enabled(self) -> bool:
        """True if any strike category has a nonzero rate."""
        return any((self.kill_rate, self.hang_rate, self.oom_rate))

    def roll(self, token: str, attempt: int) -> str | None:
        """``"kill"``, ``"hang"``, ``"oom"`` or ``None`` for this attempt.

        *token* identifies the unit of work (the supervisor uses its
        stable dispatch ordinal); *attempt* is the 0-based retry number,
        so a struck run gets an independent draw on each retry.
        """
        if not self.enabled:
            return None
        r = _fraction(self.seed, token, attempt)
        if r < self.kill_rate:
            return KILL
        if r < self.kill_rate + self.hang_rate:
            return HANG
        if r < self.kill_rate + self.hang_rate + self.oom_rate:
            return OOM
        return None

    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """Flat plain-dict form (worker-IPC format)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ChaosPlan":
        names = {f.name for f in fields(cls)}
        unknown = set(data) - names
        _require(not unknown,
                 f"ChaosPlan.from_dict: unknown fields {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_env(cls, environ=None) -> "ChaosPlan | None":
        """Parse ``$REPRO_CHAOS`` (``None`` when unset or empty).

        Format: comma-separated ``key=value`` pairs with keys ``seed``,
        ``kill``, ``hang``, ``oom``, ``hang_seconds``; e.g.
        ``REPRO_CHAOS="seed=3,kill=0.25,hang=0.1"``.
        """
        raw = (environ if environ is not None else os.environ).get(
            CHAOS_ENV, "").strip()
        if not raw:
            return None
        aliases = {"kill": "kill_rate", "hang": "hang_rate",
                   "oom": "oom_rate"}
        kwargs: dict = {}
        for item in raw.split(","):
            name, sep, value = item.partition("=")
            name = name.strip()
            _require(bool(sep),
                     f"{CHAOS_ENV}: expected key=value, got {item!r}")
            name = aliases.get(name, name)
            _require(name in {f.name for f in fields(cls)},
                     f"{CHAOS_ENV}: unknown key {name!r}")
            try:
                kwargs[name] = int(value) if name == "seed" \
                    else float(value)
            except ValueError:
                _require(False,
                         f"{CHAOS_ENV}: bad value for {name}: {value!r}")
        return cls(**kwargs)
