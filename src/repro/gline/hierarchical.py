"""Hierarchical G-line barrier networks (the paper's future-work extension).

A single G-line network is limited to 7x7 cores by the S-CSMA fan-in (six
transmitters per line).  The paper proposes overcoming this by "using
groups of G-line-based networks linked together through additional
G-lines".  This module implements that scheme:

* the mesh is partitioned into rectangular *clusters*, each at most 7x7,
  each with its own first-level G-line network;
* a second-level network spans the cluster grid (one participant per
  cluster -- its *leader*, the cluster's (0,0) core position);
* a cluster that gathers all of its cores signals the second level over an
  inter-level G-line (modelled as the leader's arrival, one line-latency
  cycle); when the second level's release reaches a leader, it opens the
  cluster's release gate and the cluster release proceeds locally.

Latency: gather(cluster) + 1 + full(second level) + gather-release(cluster)
-- e.g. ~10 cycles for a 14x14 mesh split into 2x2 clusters of 7x7, versus
4 for a single-level network; still orders of magnitude below software
barriers.
"""

from __future__ import annotations

from ..common.params import GLineConfig
from ..common.stats import BarrierSample, StatsRegistry
from ..faults import FAILOVER
from ..sim.engine import Engine
from .context import Hierarchy
from .network import GLineBarrierNetwork, count_episode


class HierarchicalGLineBarrier(Hierarchy):
    """Two-level G-line barrier for meshes larger than 7x7.

    Exposes the same ``arrive(core_id, resume, delay=0)`` interface as
    :class:`~repro.gline.network.GLineBarrierNetwork`, so it plugs
    directly into :class:`~repro.gline.barrier.GLBarrier`.
    """

    def __init__(self, engine: Engine, stats: StatsRegistry, rows: int,
                 cols: int, config: GLineConfig | None = None,
                 name: str = "hglnet"):
        super().__init__(engine, stats, rows, cols,
                         config or GLineConfig(), name)
        self.config = self.gl_config

        self.clusters: list[GLineBarrierNetwork] = []
        #: Per-segment degradation (``config.segment_failover``): cores of
        #: a quarantined cluster gather in a software cohort that still
        #: joins the chip-wide barrier through the top-level network, so
        #: healthy clusters stay on G-line hardware.
        self.segment_mode = self.config.segment_failover
        self._sw_pending: list[list] = []
        #: Per cluster, the resume its leader arrives at the top with.
        self._top_resumes: list = []
        self._leader_sent: list[bool] = []
        self._gate_open_phase: list[bool] = []
        for k, (cl_name, rlen, clen, ids) in enumerate(self.grid):
            net = GLineBarrierNetwork(
                engine, stats, rlen, clen, self.config,
                name=cl_name, core_ids=ids)
            net.install_gate(lambda k=k: self._cluster_gathered(k))
            net.on_all_released = lambda k=k: self._cluster_released(k)
            self._top_resumes.append(
                lambda outcome=None, k=k: self._top_released(k, outcome))
            self.clusters.append(net)
            self._sw_pending.append([])
            self._leader_sent.append(False)
            self._gate_open_phase.append(False)

        # Second level: one participant per cluster.
        self.top = GLineBarrierNetwork(
            engine, stats, self.cluster_rows, self.cluster_cols,
            self.config, name=f"{name}.top")
        # Every level reports its wire toggles and faults.* counters to
        # the chip registry, but only this wrapper counts episodes, once
        # per chip episode.
        for net in self.levels:
            net.counts_episodes = False

        self.barriers_completed = 0
        self.samples: list[BarrierSample] = []
        self._first_arrival: int | None = None
        self._last_arrival: int | None = None
        self._released_clusters = 0
        self._release_time: int | None = None

    # ------------------------------------------------------------------ #
    # Fault-handling plumbing (repro.faults)
    # ------------------------------------------------------------------ #
    @property
    def quarantined(self) -> bool:
        """True once chip-wide hardware synchronization is impossible.

        Without ``segment_failover`` any retired level quarantines the
        whole chip (the pre-recovery behaviour).  With it, a quarantined
        *cluster* only degrades its own segment (cores complete over a
        software cohort that still joins the top-level barrier); only
        losing the top-level network forces the chip-wide fallback."""
        if self.segment_mode:
            return self.top.quarantined
        return (self.top.quarantined
                or any(net.quarantined for net in self.clusters))

    @property
    def failovers(self) -> int:
        return (self.top.failovers
                + sum(net.failovers for net in self.clusters))

    # ------------------------------------------------------------------ #
    def arrive(self, core_id: int, resume, delay: int = 0) -> None:
        if delay and self.segment_mode:
            # Whether the core joins a software cohort is decided at its
            # bar_reg write: decide once the delay has passed.
            self.schedule_batched(self.now + delay, self.arrive, core_id,
                                  resume)
            return
        # +write latency: mirrors GLineBarrierNetwork's episode stamps,
        # which record the bar_reg-visible time.
        visible = self.now + delay + self.config.barreg_write_cycles
        if self._first_arrival is None:
            self._first_arrival = visible
        self._last_arrival = visible
        k = self.cluster_of[core_id]
        cluster = self.clusters[k]
        if not self.segment_mode:
            cluster.arrive(core_id, resume, delay)
            return
        if self._sw_pending[k] and not cluster.quarantined:
            # The cluster was re-admitted mid-episode while a software
            # cohort was already collecting: keep the cohort together.
            self._segment_arrive(k, resume)
            return
        cluster.arrive(core_id, self._wrap_segment(k, resume))

    # ------------------------------------------------------------------ #
    # Per-segment software fallback (segment_failover mode)
    # ------------------------------------------------------------------ #
    def _wrap_segment(self, k: int, resume):
        """Intercept a cluster-level FAILOVER bounce: while the top level
        is still up, the core joins its segment's software cohort instead
        of the chip-wide software barrier."""
        def wrapped(outcome=None, _k=k, _resume=resume):
            if outcome == FAILOVER and not self.top.quarantined:
                self._segment_arrive(_k, _resume)
            elif _resume is not None:
                if outcome is None:
                    _resume()
                else:
                    _resume(outcome)
        return wrapped

    def _segment_arrive(self, k: int, resume) -> None:
        pend = self._sw_pending[k]
        pend.append(resume)
        self.stats.bump("faults.failover.segment_arrivals")
        if len(pend) != self.clusters[k].num_cores:
            return
        if self._gate_open_phase[k]:
            # The cluster degraded *mid-release*, after the top level
            # already released it: chip-wide coordination for this
            # episode is done, so the cohort just finishes locally.
            self._scatter_segment(k)
            return
        # Software gather complete: the segment joins the chip-wide
        # barrier through the top level after the combine penalty.
        # (_cluster_gathered is idempotent per episode, covering a
        # leader arrival already in flight from before the degrade.)
        self.schedule(self.segment_latency[k], self._cluster_gathered, k)

    def _scatter_segment(self, k: int) -> None:
        """Resume a complete software cohort (release-side penalty) and
        account the cluster's episode completion."""
        release_time = self.now + self.segment_latency[k]
        for resume in self._drain_segment(k):
            if resume is not None:
                self.schedule_batched(release_time, resume)
        self._cluster_released(k)

    def _drain_segment(self, k: int):
        pend = self._sw_pending[k]
        self._sw_pending[k] = []
        return pend

    # ------------------------------------------------------------------ #
    def _cluster_gathered(self, k: int) -> None:
        if self._leader_sent[k]:
            # Idempotent per episode across the hardware and segment
            # paths: a cluster that degrades after its gate reported must
            # not re-arrive its leader at the second level.
            return
        self._leader_sent[k] = True
        # Inter-level G-line: the cluster leader signals the second level
        # (modelled as an arrival whose bar_reg write is the line hop).
        self.top.arrive(self.top.core_ids[k], self._top_resumes[k])

    def _top_released(self, k: int, outcome=None) -> None:
        self._leader_sent[k] = False
        if outcome == FAILOVER:
            # The inter-cluster level was quarantined by its watchdog:
            # chip-wide release can no longer be coordinated in hardware,
            # so the gathered cluster fails its cores over to software
            # instead of opening the gate (which would release them
            # without chip-wide synchronization).
            pend = self._drain_segment(k)
            if pend:
                for resume in pend:
                    if resume is not None:
                        self.schedule_batched(self.now + 1, resume,
                                              FAILOVER)
                return
            self.clusters[k].failover()
            return
        pend = self._sw_pending[k]
        if len(pend) == self.clusters[k].num_cores:
            # Chip-wide release reached a software segment: scatter it to
            # the cohort with the segment's release-side penalty.
            self._scatter_segment(k)
            return
        if self.segment_mode:
            # Top-level coordination for this episode is done; a cohort
            # still collecting (failover bounces in flight) finishes
            # locally once complete (_segment_arrive's gate-open branch).
            self._gate_open_phase[k] = True
        if not pend:
            self.clusters[k].open_gate()

    def _cluster_released(self, k: int) -> None:
        self._gate_open_phase[k] = False
        self._released_clusters += 1
        self._release_time = self.now
        if self._released_clusters == len(self.clusters):
            self._released_clusters = 0
            self.barriers_completed += 1
            count_episode(self.stats, self.metrics, self._first_arrival,
                          self._last_arrival, self._release_time)
            self.samples.append(BarrierSample(
                barrier_id=self.barriers_completed,
                first_arrival=self._first_arrival,
                last_arrival=self._last_arrival,
                release=self._release_time))
            self._first_arrival = None
            self._last_arrival = None

    # ------------------------------------------------------------------ #
    def describe(self) -> str:
        return (f"hierarchical G-line barrier: "
                f"{self.cluster_rows}x{self.cluster_cols} clusters over a "
                f"{self.rows}x{self.cols} mesh, {self.num_glines} wires")
