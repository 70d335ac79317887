"""Every route of the network's route table against ``Mesh2D.route``.

A route is the tuple of links along the XY path, then the source,
destination and intermediate routers.  For every (src, dst) pair of a
few mesh shapes -- one row, one column, non-square and the 16x16
evaluation mesh -- it must hold the very ``Link`` and ``Router``
objects the list path names, and a tile outside the mesh must raise
``ConfigError``.
"""

import pytest

from repro.common.errors import ConfigError
from repro.common.params import NocConfig
from repro.common.stats import StatsRegistry
from repro.noc.network import Network
from repro.sim.engine import Engine


def _identities(route):
    links, source, dest, between = route
    return (tuple(map(id, links)), id(source), id(dest),
            tuple(map(id, between)))


@pytest.mark.parametrize("rows, cols", [(1, 2), (1, 5), (5, 1), (3, 7),
                                        (4, 4), (16, 16)])
def test_every_route_matches_mesh_route(rows, cols):
    tiles = rows * cols
    net = Network(Engine(), StatsRegistry(tiles),
                  NocConfig(rows=rows, cols=cols))
    routers = net.routers
    for src in range(tiles):
        for dst in range(tiles):
            path = net.mesh.route(src, dst)
            want = (tuple(net.links[hop] for hop in zip(path, path[1:])),
                    routers[src], routers[dst],
                    tuple(routers[t] for t in path[1:-1]))
            assert _identities(net._route(src, dst)) == _identities(want)


@pytest.mark.parametrize("src, dst", [(-1, 0), (0, -1), (12, 0), (0, 12),
                                      (12, 13)])
def test_route_outside_the_mesh_raises(src, dst):
    net = Network(Engine(), StatsRegistry(12), NocConfig(rows=3, cols=4))
    with pytest.raises(ConfigError):
        net._route(src, dst)
