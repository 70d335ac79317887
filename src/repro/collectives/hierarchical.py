"""Two-level hierarchical collective network for meshes beyond 7x7.

Mirrors :mod:`repro.gline.hierarchical`: the mesh is partitioned into
clusters of at most ``max_transmitters + 1`` per dimension, each with its
own :class:`~repro.collectives.network.CollectiveNetwork` built in
``hold_result`` mode, plus a *top* network spanning the cluster grid
(one participant per cluster -- its (0,0) *root* core).

The reduction recursion is the same ``COMBINE_KIND`` composition the
flat fabric uses between its row and column stages, one level up:

* a cluster reduces its cores' operands with kind *k* and parks the
  partial (``on_reduced``);
* the root arrives at the top network with kind ``COMBINE_KIND[k]`` and
  the partial as its operand (the top fabric's operand width is sized
  for the widest possible cluster partial);
* the top result is chip-global; each root's resume hands it back here,
  which resumes the root core and opens the cluster's local broadcast
  (``open_result``) framed at the global width the clusters were told
  at ``begin`` time (``bcast_width_fn``).

Fault containment is whole-operation by default: if any cluster or the
top network fails over, every waiting core of the episode is bounced
with ``FAILOVER`` and the library completes the operation as one
software cohort -- splitting one collective between hardware and
software could deliver different values to different cores.

With ``GLineConfig.segment_failover`` the containment is per *segment*,
mirroring the barrier network's segment machinery: a cluster that fails
before any of its cores saw a result keeps the rest of the chip on
hardware.  The failed cluster's cores form a software cohort whose
operands are combined over the NoC (modelled latency
``entry_overhead + 2 * (rows + cols)`` per leg, the barrier's segment
cost); the cohort's combined partial arrives at the top network through
the cluster's root slot, and the chip-global result is scattered back
to the cohort.  A cluster that already delivered results (or parked a
partial the top consumed) still aborts the whole operation -- splitting
*that* episode could not keep values coherent.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import chain
from typing import Callable

from ..common.errors import ConfigError
from ..common.params import GLineConfig
from ..common.stats import StatsRegistry
from ..faults import FAILOVER
from ..gline.context import Hierarchy
from ..sim.engine import Engine
from . import ops
from .config import CollectiveConfig
from .network import CollectiveNetwork


class HierarchicalCollectiveNetwork(Hierarchy):
    """Two-level collective network; same ``arrive`` interface as the
    flat :class:`~repro.collectives.network.CollectiveNetwork`."""

    def __init__(self, engine: Engine, stats: StatsRegistry, rows: int,
                 cols: int, gl_config: GLineConfig | None = None,
                 coll_config: CollectiveConfig | None = None,
                 name: str = "collh"):
        super().__init__(engine, stats, rows, cols,
                         gl_config or GLineConfig(), name)
        self.coll_config = coll_config or CollectiveConfig()

        w = self.coll_config.value_width
        max_nc = max(len(ids) for _, _, _, ids in self.grid)
        #: Top-level operand width: sized for the widest cluster partial
        #: any kind can produce (SUM over the largest cluster).
        self.top_width = ops.stage_result_width("sum", w, max_nc)
        if self.top_width > 64:
            raise ConfigError(
                f"value_width {w} leaves no headroom for cluster SUM "
                f"partials on a {rows}x{cols} mesh (needs "
                f"{self.top_width} bits at the top level); reduce "
                f"CollectiveConfig.value_width")

        self.segment_mode = self.gl_config.segment_failover
        self.clusters: list[CollectiveNetwork] = []
        #: Per-cluster software-cohort state (segment_failover mode):
        #: the pending (value, resume) pairs of the open episode, its
        #: kind, and the modelled NoC combine/scatter leg latency.
        self._segments: dict[str, dict] = {}
        #: Per cluster, the resume its root arrives at the top with.
        self._top_resumes: dict[str, Callable[..., None]] = {}
        root_ids: list[int] = []
        for k, (cl_name, rl, cl, ids) in enumerate(self.grid):
            cl_net = CollectiveNetwork(
                engine, stats, rl, cl, self.gl_config,
                self.coll_config, name=cl_name,
                core_ids=ids, hold_result=True)
            cl_net.bcast_width_fn = self._global_bw
            # Only the top level counts episodes: it completes once
            # per chip episode.
            cl_net.counts_episodes = False
            cl_net.on_reduced = \
                lambda partial, n=cl_net: self._cluster_reduced(
                    n, partial)
            cl_net.on_failover = \
                lambda n=cl_net: self._cluster_failed(n)
            self._top_resumes[cl_net.name] = \
                lambda outcome=None, n=cl_net: self._top_resumed(
                    n, outcome)
            self.clusters.append(cl_net)
            self._segments[cl_net.name] = {
                "pend": [], "kind": None,
                "latency": self.segment_latency[k]}
            root_ids.append(ids[0])

        top_coll = replace(self.coll_config, value_width=self.top_width)
        self.top: CollectiveNetwork = CollectiveNetwork(
            engine, stats, self.cluster_rows, self.cluster_cols,
            self.gl_config, top_coll, name=f"{name}.top",
            core_ids=root_ids)
        self.top.on_failover = self.failover

        self.quarantined = False
        self.failovers = 0
        self.segment_failovers = 0
        self._failing = False

    # ------------------------------------------------------------------ #
    def _global_bw(self, kind: str) -> int:
        """Broadcast framing of the chip-global result -- identical to
        the width the top fabric computes for its own broadcast, so the
        cluster rebroadcast carries every bit."""
        k2 = ops.COMBINE_KIND[kind]
        return ops.result_width(k2, self.top_width, self.cluster_rows,
                                self.cluster_cols)

    # ------------------------------------------------------------------ #
    def arrive(self, core_id: int, kind: str, value: int,
               resume: Callable[..., None] | None,
               delay: int = 0) -> None:
        if delay and self.segment_mode:
            # Whether the core joins a software cohort is decided at its
            # col_reg write: decide once the delay has passed.
            self.schedule_batched(self.now + delay, self.arrive, core_id,
                                  kind, value, resume)
            return
        cluster = self.clusters[self.cluster_of[core_id]]
        if self.segment_mode and not self.quarantined:
            if cluster.quarantined and not self.top.quarantined:
                # The cluster is retired but the chip is healthy: its
                # cores join the software cohort directly.
                self._segment_arrive(cluster, kind, value, resume)
                return
            resume = self._wrap_segment(cluster, kind, value, resume)
        cluster.arrive(core_id, kind, value, resume, delay)

    def _cluster_reduced(self, cluster: CollectiveNetwork,
                         partial: int) -> None:
        """A cluster parked its partial: its root joins the top level."""
        kind = cluster._kind
        assert kind is not None
        self.top.arrive(cluster.core_ids[0], ops.COMBINE_KIND[kind],
                        partial, self._top_resumes[cluster.name])

    def _top_resumed(self, cluster: CollectiveNetwork, outcome) -> None:
        if outcome == FAILOVER:
            self.failover()
            return
        if cluster.quarantined:
            # A whole-op abort raced the hand-off: the cluster already
            # bounced its cores; nothing left to broadcast into.
            return
        cluster.open_result(outcome)

    # ------------------------------------------------------------------ #
    # Per-segment software fallback (segment_failover mode)
    # ------------------------------------------------------------------ #
    def _wrap_segment(self, cluster: CollectiveNetwork, kind: str,
                      value: int, resume):
        """Intercept a FAILOVER bounce from a still-splittable cluster
        episode and divert the core into the segment cohort instead of
        the chip-wide software path."""
        if resume is None:
            return None

        def wrapped(outcome=None):
            if outcome == FAILOVER and self.segment_mode \
                    and not self.quarantined and not self.top.quarantined \
                    and cluster.quarantined:
                self._segment_arrive(cluster, kind, value, resume)
            else:
                resume(outcome)
        return wrapped

    def _cluster_failed(self, cluster: CollectiveNetwork) -> None:
        """A cluster gave up.  Degrade per-segment when the episode is
        still splittable (nothing delivered, partial not yet consumed by
        the top); otherwise abort the whole operation."""
        if self.segment_mode and not self.quarantined \
                and not self.top.quarantined \
                and not cluster.last_partial_delivery \
                and not cluster.last_parked:
            self.segment_failovers += 1
            self.fault_stats.bump("faults.collective.segment_failovers")
            # The bounced (wrapped) resumes now stream into the cohort.
            return
        self.failover()

    def _segment_arrive(self, cluster: CollectiveNetwork, kind: str,
                        value: int, resume) -> None:
        seg = self._segments[cluster.name]
        if seg["kind"] is None:
            seg["kind"] = kind
        self.fault_stats.bump("faults.collective.segment_arrivals")
        seg["pend"].append((value, resume))
        if len(seg["pend"]) == cluster.num_cores:
            self.schedule(seg["latency"], self._segment_gathered, cluster)

    def _segment_gathered(self, cluster: CollectiveNetwork) -> None:
        """The cohort's operands were combined over the NoC; the partial
        takes the retired cluster's root slot at the top network."""
        seg = self._segments[cluster.name]
        if not seg["pend"]:
            return  # flushed by a whole-op abort in the meantime
        kind = seg["kind"]
        assert kind is not None
        partial = ops.reference_reduce(
            kind, [v for v, _ in seg["pend"]],
            self.coll_config.value_width)
        self.top.arrive(
            cluster.core_ids[0], ops.COMBINE_KIND[kind], partial,
            lambda outcome=None, n=cluster: self._segment_resumed(
                n, outcome))

    def _segment_resumed(self, cluster: CollectiveNetwork,
                         outcome) -> None:
        seg = self._segments[cluster.name]
        pend, seg["pend"] = seg["pend"], []
        seg["kind"] = None
        if outcome == FAILOVER:
            self.failover()
            release = self.now + 1
        else:
            release = self.now + seg["latency"]
        for _value, resume in pend:
            if resume is not None:
                self.schedule_batched(release, resume, outcome)

    # ------------------------------------------------------------------ #
    def failover(self) -> None:
        """Whole-operation abort: one software cohort for the episode."""
        if self._failing or self.quarantined:
            return
        self._failing = True
        self.quarantined = True
        self.failovers += 1
        self.fault_stats.bump("faults.collective.segment_aborts")
        if not self.top.quarantined:
            self.top.failover(reason="hierarchical abort")
        for cl_net in self.clusters:
            cl_net.abort_episode()
        for cl_net in self.clusters:
            seg = self._segments[cl_net.name]
            pend, seg["pend"] = seg["pend"], []
            seg["kind"] = None
            for _value, resume in pend:
                if resume is not None:
                    self.schedule_batched(self.now + 1, resume, FAILOVER)
        self._failing = False

    # ------------------------------------------------------------------ #
    @property
    def fault_stats(self) -> StatsRegistry:
        return self.stats

    @property
    def collectives_completed(self) -> int:
        return self.top.collectives_completed

    @property
    def int_detections(self) -> int:
        return self.top.int_detections + sum(c.int_detections
                                             for c in self.clusters)

    @property
    def int_round_retries(self) -> int:
        return self.top.int_round_retries + sum(c.int_round_retries
                                                for c in self.clusters)

    @property
    def int_corrections(self) -> int:
        return self.top.int_corrections + sum(c.int_corrections
                                              for c in self.clusters)

    @property
    def int_op_retries(self) -> int:
        return self.top.int_op_retries + sum(c.int_op_retries
                                             for c in self.clusters)

    @property
    def int_failovers(self) -> int:
        return self.top.int_failovers + sum(c.int_failovers
                                            for c in self.clusters)

    @property
    def integrity_log(self) -> list[str]:
        return list(chain(self.top.integrity_log,
                          *(c.integrity_log for c in self.clusters)))

    def fully_idle(self) -> bool:
        return self.top.fully_idle() and all(c.fully_idle()
                                             for c in self.clusters)
