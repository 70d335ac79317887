"""The G-line library, for the barrier and the collective: its input
checks (an empty context list, a context that was not provisioned, a
failover with no software fallback to complete it) and what each op
yields."""

from dataclasses import replace

import pytest

from repro import CMP, CMPConfig
from repro.collectives.config import CollectiveConfig
from repro.collectives.library import GLCollective
from repro.common.errors import ConfigError, GLineError
from repro.cpu import isa
from repro.gline.barrier import GLBarrier

#: kind -> (library class, the chip's library attribute, the op on a
#: context).
KINDS = {
    "barrier": (GLBarrier, "barrier_impl",
                lambda ident: isa.BarrierOp(barrier_id=ident)),
    "collective": (GLCollective, "collective_impl",
                   lambda ident: isa.CollectiveOp("sum", ident=ident)),
}


def one_context_chip():
    """A 4-core chip with one unhardened G-line context of each kind:
    neither library has a software fallback."""
    cfg = CMPConfig.for_cores(
        4, collectives=CollectiveConfig(enabled=True))
    return CMP(cfg, barrier="gl")


def run_op(chip, op):
    chip.run([iter([op]) for _ in range(chip.config.num_cores)])


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_library_rejects_bad_input(kind):
    cls, attr, make_op = KINDS[kind]
    with pytest.raises(ConfigError,
                       match=f"^{cls.__name__} needs at least one "
                             f"network context$"):
        cls([])

    chip = one_context_chip()
    assert getattr(chip, attr).fallback is None
    with pytest.raises(ConfigError,
                       match=f"^{kind} context 1 not provisioned "
                             f"\\(have 1\\)$"):
        run_op(chip, make_op(1))

    chip = one_context_chip()
    getattr(chip, attr).networks[0].quarantined = True
    with pytest.raises(GLineError,
                       match=f"^{kind} context 0 failed over but no "
                             f"software fallback is configured$"):
        run_op(chip, make_op(0))


@pytest.mark.parametrize("stuck", [False, True])
def test_op_values_in_hardware_and_in_software(stuck):
    """A BarrierOp yields None and a CollectiveOp its result, whether the
    network releases the episode or the software fallback completes it."""
    cfg = CMPConfig.for_cores(4, collectives=CollectiveConfig(
        enabled=True, watchdog_budget=64))
    cfg = cfg.with_(gline=replace(cfg.gline, watchdog_budget=64))
    chip = CMP(cfg, barrier="gl")
    if stuck:
        for attr in ("barrier_impl", "collective_impl"):
            getattr(chip, attr).networks[0].lines[0].stuck = 0
    seen = {}

    def prog(cid):
        seen[cid] = [(yield isa.BarrierOp()),
                     (yield isa.CollectiveOp("sum", value=cid + 1))]

    chip.run([prog(c) for c in range(4)])
    assert seen == {c: [None, 10] for c in range(4)}
    counters = chip.stats.counters
    assert counters.get("faults.failover.sw_arrivals", 0) == 4 * stuck
    assert counters.get("faults.failover.sw_collectives", 0) == 4 * stuck
