"""Shared test utilities."""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Generator

from repro import CMP, CMPConfig
from repro.common.params import GLineConfig
from repro.gline import (GLineBarrierNetwork, HierarchicalGLineBarrier,
                         build_sync_contexts)


def make_chip(num_cores: int = 4, barrier: str = "gl",
              entry_overhead: int | None = None, **overrides) -> CMP:
    """A small chip with Table-1-style defaults, convenient for tests."""
    cfg = CMPConfig.for_cores(num_cores, **overrides)
    if entry_overhead is not None:
        cfg = cfg.with_(gline=GLineConfig(entry_overhead=entry_overhead))
    return CMP(cfg, barrier=barrier)


def barrier_slots(engine, stats, rows: int, cols: int,
                  config: GLineConfig | None = None, slots: int = 2) -> list:
    """*slots* barrier contexts time-multiplexed on the wires of one
    rows x cols network, as the chip's builder makes them."""
    return build_sync_contexts(
        GLineBarrierNetwork, HierarchicalGLineBarrier, engine, stats, rows,
        cols, config or GLineConfig(), name="gltm", slots=slots)


def canonical_digest(obj: Any) -> str:
    """sha256 of *obj*'s canonical JSON (sorted keys, no whitespace): a
    compact pin for a whole timeline or result set."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def run_uniform(chip: CMP, program_factory: Callable[[int], Generator],
                **kw):
    """Run ``program_factory(cid)`` on every core of *chip*."""
    return chip.run([program_factory(c) for c in range(chip.num_cores)],
                    **kw)


class MemHarness:
    """Direct L1-level access harness (no cores): issues loads/stores on a
    chip's caches and lets the engine run to completion after each call.
    Used by coherence-protocol tests to script exact access interleavings.
    """

    def __init__(self, chip: CMP):
        self.chip = chip

    def load(self, tile: int, addr: int) -> int:
        box: list = []
        self.chip.tiles[tile].l1.load(addr, box.append)
        self.chip.engine.run()
        assert box, f"load on tile {tile} never completed"
        return box[0]

    def store(self, tile: int, addr: int, value: int) -> None:
        box: list = []
        self.chip.tiles[tile].l1.store(addr, value,
                                       lambda: box.append(True))
        self.chip.engine.run()
        assert box, f"store on tile {tile} never completed"

    def atomic(self, tile: int, addr: int, fn) -> int:
        box: list = []
        self.chip.tiles[tile].l1.atomic(addr, fn, box.append)
        self.chip.engine.run()
        assert box, f"atomic on tile {tile} never completed"
        return box[0]

    def state(self, tile: int, addr: int):
        return self.chip.tiles[tile].l1.state_of(addr)

    def dir_state(self, addr: int):
        home = self.chip.amap.home_of(addr)
        line = self.chip.amap.line_of(addr)
        return self.chip.tiles[home].home.dir_state(line)
