"""Chip assembly and run-harness tests."""

import pytest

from helpers import make_chip, run_uniform
from repro import CMP, CMPConfig
from repro.common.errors import ConfigError, DeadlockError, SimulationError
from repro.cpu import isa
from repro.sync.api import BarrierImpl
from repro.sync.csw import CentralizedBarrier
from repro.sync.dsw import CombiningTreeBarrier
from repro.gline.barrier import GLBarrier


def test_default_chip_is_table1():
    chip = CMP()
    assert chip.num_cores == 32
    assert len(chip.tiles) == 32
    assert chip.config.memory_latency == 400


@pytest.mark.parametrize("kind,cls", [
    ("gl", GLBarrier), ("dsw", CombiningTreeBarrier),
    ("csw", CentralizedBarrier), ("csw-fa", CentralizedBarrier)])
def test_barrier_kind_selection(kind, cls):
    chip = make_chip(4, kind)
    assert isinstance(chip.barrier_impl, cls)


def test_custom_barrier_instance_accepted():
    cfg = CMPConfig.for_cores(4)
    chip0 = CMP(cfg)
    custom = CombiningTreeBarrier(chip0.allocator, [0, 1, 2, 3], arity=4)
    chip = CMP(CMPConfig.for_cores(4), barrier=custom)
    assert chip.barrier_impl is custom


def test_unknown_barrier_kind_rejected():
    with pytest.raises(ConfigError):
        CMP(CMPConfig.for_cores(4), barrier="nonsense")


def test_wrong_program_count_rejected():
    chip = make_chip(4)
    with pytest.raises(ConfigError):
        chip.run([iter([isa.Compute(1)])])  # 1 program for 4 cores


def test_empty_program_set_rejected():
    chip = make_chip(2)
    with pytest.raises(ConfigError):
        chip.run([None, None])


def test_idle_cores_allowed():
    chip = make_chip(4)
    progs = [iter([isa.Compute(10)]), None, None, None]
    res = chip.run(progs)
    assert res.total_cycles == 10


def test_deadlock_detection_mismatched_barriers():
    """One core skips the barrier: the others can never be released."""
    chip = make_chip(4, "gl")

    def prog(cid):
        if cid != 3:
            yield isa.BarrierOp()
        yield isa.Compute(1)

    with pytest.raises(DeadlockError) as exc:
        chip.run([prog(c) for c in range(4)])
    assert set(exc.value.blocked_cores) == {0, 1, 2}
    # The message pinpoints when it happened and what each blocked core
    # was executing (here: stuck inside the hardware barrier arrival).
    msg = str(exc.value)
    assert "deadlocked at cycle" in msg
    assert "HWArrive" in msg
    assert "core 3" not in msg          # the skipping core finished fine


def test_deadlock_detection_software_barrier():
    chip = make_chip(4, "dsw")

    def prog(cid):
        if cid != 0:
            yield isa.BarrierOp()

    with pytest.raises(DeadlockError) as exc:
        chip.run([prog(c) for c in range(4)])
    msg = str(exc.value)
    assert "deadlocked at cycle" in msg
    assert "core 1" in msg              # per-core pending-op detail


def test_budget_exceeded_reports_running_cores():
    chip = make_chip(2)
    with pytest.raises(SimulationError, match="budget"):
        chip.run([iter([isa.Compute(10_000)]),
                  iter([isa.Compute(10)])], max_cycles=100)


def test_run_result_fields():
    chip = make_chip(4, "dsw")
    res = run_uniform(chip, lambda c: iter([isa.Compute(c * 10),
                                            isa.BarrierOp()]))
    assert res.barrier_name == "DSW"
    assert res.num_cores == 4
    assert res.total_cycles > 30
    assert res.num_barriers() == 1
    assert res.total_messages() > 0
    assert 0 < sum(res.cycle_fractions().values()) <= 1.001
    assert "DSW" in res.summary()


def test_determinism_across_identical_runs():
    def one_run():
        chip = make_chip(8, "dsw")
        res = run_uniform(chip, lambda c: iter(
            [isa.Compute(c * 7), isa.BarrierOp(), isa.Store(0x4000, c),
             isa.BarrierOp()]))
        return (res.total_cycles, res.total_messages(),
                res.events_executed)

    assert one_run() == one_run()


def test_gl_beats_dsw_on_back_to_back_barriers():
    def run(kind):
        chip = make_chip(8, kind)
        return run_uniform(chip, lambda c: iter(
            [isa.BarrierOp() for _ in range(10)])).total_cycles

    assert run("gl") < run("dsw")
