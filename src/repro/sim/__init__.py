"""Discrete-event simulation kernel."""

from __future__ import annotations

from .component import Component
from .engine import Engine

#: Engine classes by name (``CMPConfig.sim_backend``).  There is one
#: engine; the registry is the seam that lets a profiler or a test swap
#: in an instrumented subclass for every chip built while it is set.
BACKENDS: dict[str, type[Engine]] = {"heap": Engine}


def make_engine(backend: str = "heap") -> Engine:
    """Instantiate the engine registered under *backend*.

    Raises :class:`~repro.common.errors.SimulationError` for unknown
    names so a bad lookup fails at chip construction, not mid-run.
    """
    try:
        cls = BACKENDS[backend]
    except KeyError:
        from ..common.errors import SimulationError
        raise SimulationError(
            f"unknown sim backend {backend!r}; "
            f"choose from {sorted(BACKENDS)}") from None
    return cls()


__all__ = ["Component", "Engine", "BACKENDS", "make_engine"]
