#!/usr/bin/env python3
"""Scaling beyond 7x7: hierarchical (clustered) G-line barrier networks.

The paper's future work proposes linking G-line networks through
additional G-lines to pass the 7x7 S-CSMA limit.  This example builds
chips from 16 to 256 cores, reports which organization each uses, the
hardware barrier latency, and the total wire budget -- then contrasts with
the combining-tree software barrier at each size.

Usage:  python examples/hierarchical_scaling.py
"""

from repro import CMPConfig, StatsRegistry, mesh_dims
from repro.analysis.report import render_table
from repro.chip import CMP
from repro.common.params import GLineConfig
from repro.gline import (GLineBarrierNetwork, HierarchicalGLineBarrier,
                         build_sync_contexts)
from repro.sim.engine import Engine
from repro.workloads import SyntheticBarrierWorkload


def main() -> None:
    rows = []
    for cores in (16, 49, 64, 144, 256):
        r, c = mesh_dims(cores)
        gline = GLineConfig(entry_overhead=0)
        cfg = CMPConfig.for_cores(cores).with_(gline=gline)

        # Inspect the organization the builder picks.
        ctx = build_sync_contexts(
            GLineBarrierNetwork, HierarchicalGLineBarrier, Engine(),
            StatsRegistry(cores), r, c, gline, name="glnet")[0]
        organization = type(ctx).__name__.replace("GLineBarrier", "") \
            .replace("Network", "flat")

        per_barrier = {}
        for barrier in ("gl", "dsw"):
            chip = CMP(cfg, barrier=barrier)
            result = chip.run(SyntheticBarrierWorkload(iterations=25))
            per_barrier[barrier] = result.total_cycles / \
                result.num_barriers()
        rows.append([cores, f"{r}x{c}", organization, ctx.num_glines,
                     per_barrier["gl"], per_barrier["dsw"],
                     per_barrier["dsw"] / per_barrier["gl"]])

    print(render_table(
        ["Cores", "Mesh", "GL organization", "G-lines", "GL cyc/bar",
         "DSW cyc/bar", "DSW/GL"],
        rows,
        title="Barrier latency scaling (entry overhead removed)"))
    print()
    print("Flat networks hold the 5-cycle floor (1-cycle bar_reg write +")
    print("4-cycle synchronization); clustered networks add a handful of")
    print("cycles while the software tree keeps growing with log(N) and")
    print("contention -- the wire budget stays linear in mesh rows.")


if __name__ == "__main__":
    main()
