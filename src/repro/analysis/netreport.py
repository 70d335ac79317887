"""Network utilization reporting: per-link statistics and ASCII heatmaps.

Useful for seeing *where* the software barriers hammer the mesh (the
hot-spot links around the centralized counter's home tile for CSW; the
tree-node homes for DSW) and that GL leaves the mesh untouched.
"""

from __future__ import annotations

from ..noc.network import Network
from .report import render_table

#: Shading ramp for the heatmap (low -> high utilization).
RAMP = " .:-=+*#%@"


def link_stats(network: Network) -> list[tuple[str, int, float]]:
    """Per-link (name, flits carried, busy fraction), busiest first."""
    now = max(network.now, 1)
    rows = []
    for (src, dst), link in network.links.items():
        rows.append((f"{src}->{dst}", link.flits_carried,
                     link.flits_carried / now))
    rows.sort(key=lambda r: r[1], reverse=True)
    return rows


def hotspot_table(network: Network, top: int = 10) -> str:
    rows = [[name, flits, f"{util:.1%}"]
            for name, flits, util in link_stats(network)[:top]]
    return render_table(["Link", "Flits", "Utilization"], rows,
                        title=f"Top {top} busiest links")


def tile_heatmap(network: Network) -> str:
    """ASCII heatmap of per-tile router traffic (inject+eject+forward)."""
    mesh = network.mesh
    traversals = [router.traversals for router in network.routers]
    peak = max(max(traversals), 1)
    lines = ["Router-traffic heatmap (tile-by-tile, @ = hottest):"]
    for r in range(mesh.rows):
        row_chars = []
        for c in range(mesh.cols):
            level = traversals[mesh.tile_at(r, c)] / peak
            row_chars.append(RAMP[min(len(RAMP) - 1,
                                      int(level * (len(RAMP) - 1)))])
        lines.append("  " + " ".join(row_chars))
    lines.append(f"  peak: {peak} traversals")
    return "\n".join(lines)


def total_flit_hops(network: Network) -> int:
    return sum(link.flits_carried for link in network.links.values())
