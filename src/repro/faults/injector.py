"""The seeded runtime that turns a :class:`FaultPlan` into faults.

Determinism is the whole design: every fault *domain* (one G-line, the
NoC, one core's straggler stream, ...) gets its own ``random.Random``
whose seed is a SHA-256 digest of ``(plan seed, domain name)``.  Built-in
``hash()`` is deliberately avoided -- it is salted per process, which
would make a cached result disagree with a recomputed one across the
multiprocessing workers of :mod:`repro.exec`.

Per-domain streams also keep fault schedules *independent*: enabling NoC
drops does not shift which cycle a G-line gets stuck at, so ablating one
fault category never perturbs another.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from .plan import FaultPlan

if TYPE_CHECKING:
    from repro.common.stats import StatsRegistry
    from repro.gline.gline import GLine


def _derive_seed(seed: int, domain: str) -> int:
    digest = hashlib.sha256(f"{seed}:{domain}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class _Burst:
    """An in-flight intermittent fault: ends at cycle *end* (exclusive)."""

    end: int
    polarity: int


class FaultInjector:
    """Rolls the dice described by a :class:`FaultPlan`.

    One injector is shared by the whole chip (cores, NoC, every G-line
    network); *stats* is the chip's StatsRegistry, where every injected
    fault is counted under a ``faults.*`` key.
    """

    def __init__(self, plan: FaultPlan, stats: StatsRegistry) -> None:
        self.plan = plan
        self.stats = stats
        self._rngs: dict[str, random.Random] = {}
        #: Active intermittent bursts, keyed by line name.
        self._bursts: dict[str, _Burst] = {}

    def _rng(self, domain: str) -> random.Random:
        rng = self._rngs.get(domain)
        if rng is None:
            rng = random.Random(_derive_seed(self.plan.seed, domain))
            self._rngs[domain] = rng
        return rng

    # ------------------------------------------------------------------ #
    # G-line faults (called by the barrier network once per active cycle)
    # ------------------------------------------------------------------ #
    def perturb_glines(self, lines: Iterable[GLine],
                       now: int | None = None) -> None:
        """Apply this cycle's wire faults to *lines* (an ordered list).

        Mutates the per-cycle override fields of :class:`~repro.gline.
        gline.GLine`: ``stuck`` persists once set; ``glitch_force`` and
        ``count_delta`` last for the current cycle only.

        *now* is the current engine cycle; it is required only for the
        intermittent fault class (burst windows are wall-clock bounded,
        so a burst also heals while a quarantined network is not being
        clocked).  Passing ``None`` disables intermittent faults for the
        call, which keeps legacy call sites byte-identical.
        """
        plan = self.plan
        for line in lines:
            if line.stuck is not None:
                continue      # a stuck wire can't also glitch
            if plan.gline_intermittent_rate and now is not None \
                    and self._intermittent(line, now):
                continue      # burst asserts this cycle; wins over the rest
            rng = self._rng(f"gline:{line.name}")
            if plan.gline_stuck_rate and rng.random() < plan.gline_stuck_rate:
                line.stuck = 1 if rng.random() < 0.5 else 0
                self.stats.bump("faults.gline.stuck")
                continue
            if plan.gline_glitch_rate \
                    and rng.random() < plan.gline_glitch_rate:
                # A glitch inverts the apparent level for one cycle.
                line.glitch_force = 0 if line.sampled_on() else 1
                self.stats.bump("faults.gline.glitches")
                continue
            if plan.scsma_miscount_rate \
                    and rng.random() < plan.scsma_miscount_rate:
                # The unbiased coin is always consumed from the line's
                # main stream (like the intermittent polarity draw) so
                # sweeping the bias never shifts which cycles miscount.
                delta = rng.choice((-1, 1))
                if plan.scsma_miscount_bias:
                    brng = self._rng(f"scsmabias:{line.name}")
                    p_plus = (1.0 + plan.scsma_miscount_bias) / 2.0
                    delta = 1 if brng.random() < p_plus else -1
                line.count_delta = delta
                self.stats.bump("faults.gline.miscounts")

    def _intermittent(self, line: GLine, now: int) -> bool:
        """Advance *line*'s burst state; True if the fault asserts now.

        Uses a dedicated per-line RNG stream (``glineint:<name>``) so
        enabling intermittent faults never shifts the stuck/glitch/
        miscount schedules of the other domains.
        """
        plan = self.plan
        rng = self._rng(f"glineint:{line.name}")
        burst = self._bursts.get(line.name)
        if burst is not None and now >= burst.end:
            del self._bursts[line.name]
            self.stats.bump("faults.gline.intermittent_heals")
            burst = None
        if burst is None:
            if rng.random() >= plan.gline_intermittent_rate:
                return False
            duration = rng.randint(plan.gline_intermittent_min_cycles,
                                   plan.gline_intermittent_max_cycles)
            # The polarity draw happens even when pinned, so pinning does
            # not shift the stream's later onset/duration draws.
            coin = 1 if rng.random() < 0.5 else 0
            polarity = coin if plan.gline_intermittent_polarity is None \
                else plan.gline_intermittent_polarity
            burst = _Burst(end=now + duration, polarity=polarity)
            self._bursts[line.name] = burst
            self.stats.bump("faults.gline.intermittent_onsets")
        if plan.gline_intermittent_duty >= 1.0 \
                or rng.random() < plan.gline_intermittent_duty:
            line.glitch_force = burst.polarity
            self.stats.bump("faults.gline.intermittent_cycles")
            return True
        return False

    # ------------------------------------------------------------------ #
    # NoC faults (called by the network per injected message)
    # ------------------------------------------------------------------ #
    def noc_outcome(self) -> str | None:
        """``"dropped"``, ``"corrupted"`` or ``None`` for this message."""
        plan = self.plan
        if not (plan.noc_drop_rate or plan.noc_corrupt_rate):
            return None
        r = self._rng("noc").random()
        if r < plan.noc_drop_rate:
            return "dropped"
        if r < plan.noc_drop_rate + plan.noc_corrupt_rate:
            return "corrupted"
        return None

    # ------------------------------------------------------------------ #
    # Core faults (called at each barrier entry)
    # ------------------------------------------------------------------ #
    def core_failstop(self, cid: int) -> bool:
        plan = self.plan
        if not plan.core_failstop_rate:
            return False
        return self._rng(f"failstop:{cid}").random() < plan.core_failstop_rate

    def core_straggler_delay(self, cid: int) -> int:
        """Extra cycles this core stalls before this barrier (0 = none)."""
        plan = self.plan
        if not plan.core_straggler_rate:
            return 0
        rng = self._rng(f"straggler:{cid}")
        if rng.random() < plan.core_straggler_rate:
            return rng.randint(1, plan.straggler_max_cycles)
        return 0
