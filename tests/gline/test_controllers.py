"""Unit tests for Figure 4's controllers: the stage controllers of the
barrier kind (:data:`repro.collectives.ops.BARRIER`), alone and on a
small fabric.  The row master is Figure 4's MasterH, the row slaves its
SlaveHs, the column slaves its SlaveVs and the column master MasterV."""

from repro.collectives import ops
from repro.collectives.controllers import (
    M_BC_DONE, M_BC_START, M_DONE, M_GATHER, S_DONE, S_IDLE, S_SIGNAL,
    S_WAIT_BC, StageMaster, StageSlave,
)
from repro.collectives.fabric import BARRIER_WIRES, CollectiveFabric
from repro.common.stats import StatsRegistry
from repro.gline.gline import GLine
from repro.gline.network import GLineBarrierNetwork
from repro.sim.engine import Engine


def make_row(cols=3):
    tx = GLine("tx", 6)
    rel = GLine("rel", 6)
    master = StageMaster(tx, rel, "m")
    master.configure(ops.BARRIER, 0, 0, 0, (None, 1), cols - 1)
    slaves = []
    for c in range(1, cols):
        slave = StageSlave(tx, rel, f"s{c}")
        slave.configure(ops.BARRIER, 0, 0, 0)
        slaves.append(slave)
    return tx, rel, master, slaves


def barrier_fabric(rows, cols):
    fabric = CollectiveFabric(rows, cols, 1, 6, name="b",
                              wires=BARRIER_WIRES)
    fabric.begin(ops.BARRIER)
    return fabric


def test_barregfile_write_and_clear():
    """The network's bar_reg: a write sets it, the release clears it and
    runs the core's resume."""
    engine = Engine()
    net = GLineBarrierNetwork(engine, StatsRegistry(2), 1, 2)
    hits = []
    net.arrive(0, lambda: hits.append(0))
    engine.run(until=2)
    assert net._waiting_core_ids() == [0]
    net.arrive(1, lambda: hits.append(1))
    engine.run()
    assert net._waiting_core_ids() == []
    assert hits == [0, 1]


def test_slave_h_pulses_once_on_arrival():
    tx, rel, master, slaves = make_row()
    slave = slaves[0]
    slave.set_input(1)
    slave.assert_phase("s1")
    assert tx.sample_count() == 1
    assert slave.state == S_WAIT_BC  # Waiting state
    tx.end_cycle()
    slave.assert_phase("s1")         # must not re-pulse
    assert tx.sample_count() == 0


def test_slave_h_does_nothing_before_arrival():
    tx, rel, master, slaves = make_row()
    slaves[0].assert_phase("s1")
    assert tx.sample_count() == 0
    assert slaves[0].idle


def test_master_h_accumulates_scnt_across_cycles():
    tx, rel, master, slaves = make_row(cols=3)
    # Slave 1 arrives in cycle 0, slave 2 in cycle 1.
    slaves[0].set_input(1)
    slaves[0].assert_phase("s1")
    master.sample_phase()
    tx.end_cycle()
    assert master.arrived == 1 and master.state == M_GATHER
    slaves[1].set_input(1)
    slaves[1].assert_phase("s2")
    master.sample_phase()
    tx.end_cycle()
    assert master.arrived == 2
    assert master.state == M_GATHER  # own core hasn't arrived
    master.set_own(1)
    assert master.state == M_GATHER  # read in the next sample phase
    master.sample_phase()
    assert master.own_set and master.state == M_DONE


def test_master_h_scsma_counts_simultaneous():
    tx, rel, master, slaves = make_row(cols=3)
    for c, slave in enumerate(slaves, start=1):
        slave.set_input(1)
        slave.assert_phase(f"s{c}")
    master.set_own(1)
    master.sample_phase()
    assert master.arrived == 2      # both counted in one cycle
    assert master.state == M_DONE


def test_master_h_release_resets_everything():
    fabric = barrier_fabric(1, 2)
    master, slave = fabric.rmasters[0], fabric.rslaves[0][0]
    fabric.arrive_local(0, 1)
    fabric.arrive_local(1, 1)
    assert fabric.tick() == []       # gather the row
    assert master.state == M_BC_START
    # The release pulse clears the master's core and its registers, and
    # the waiting slave sees it and clears its core, in the same tick.
    assert fabric.tick() == [(0, 0), (1, 0)]
    assert master.idle and master.own == 0
    assert slave.state == S_IDLE
    assert not fabric.will_act()


def test_slave_v_waits_for_row_flag():
    fabric = barrier_fabric(2, 1)
    cs, row1 = fabric.colslaves[0], fabric.rmasters[1]
    fabric.arrive_local(1, 1)
    tx_v = fabric.colmaster.tx
    assert cs.state == S_IDLE
    fabric.tick()                    # row 1 completes...
    assert row1.state == M_DONE and cs.state == S_SIGNAL
    seen = []
    fabric.perturb_hook = lambda lines: seen.append(tx_v.sample_count())
    fabric.tick()                    # ...and its column slave reports it
    assert seen == [1] and cs.state == S_WAIT_BC
    # Release: the vertical release pulse arms the row master.
    fabric.perturb_hook = None
    fabric.arrive_local(0, 1)
    while row1.state != M_BC_START:
        fabric.tick()
    assert cs.state == S_DONE
    fabric.tick()                    # row 1 releases; the slave resets
    assert cs.state == S_IDLE and row1.state == M_GATHER


def test_master_v_requires_both_count_and_row0_flag():
    fabric = barrier_fabric(2, 1)
    mv, row0 = fabric.colmaster, fabric.rmasters[0]
    fabric.arrive_local(1, 1)
    for _ in range(3):
        fabric.tick()
    assert mv.arrived == 1 and mv.state == M_GATHER  # row 0 not complete
    fabric.arrive_local(0, 1)
    fabric.tick()                    # row 0 completes...
    assert row0.state == M_DONE and mv.state == M_GATHER
    fabric.tick()                    # ...and the column reads it a tick later
    assert mv.state == M_BC_START
    # The release drives the vertical release line, arms row 0 for the
    # next tick and restarts the column's count.
    seen = []
    fabric.perturb_hook = lambda lines: seen.append(mv.rel.sampled_on())
    assert fabric.tick() == []
    assert seen == [True]
    assert row0.state == M_BC_START
    assert mv.arrived == 0 and mv.state == M_GATHER


def test_will_act_predicates():
    tx, rel, master, slaves = make_row(cols=2)
    assert not master.will_act()
    assert not slaves[0].will_act()
    slaves[0].set_input(1)
    assert slaves[0].will_act()      # will pulse next cycle
    master.set_own(1)
    assert master.will_act()         # own arrival not read yet
    master.own_set = True
    assert not master.will_act()     # steady, waiting on slaves
    master.state = M_BC_START
    assert master.will_act()
    master.assert_phase()
    assert master.state == M_BC_DONE and rel.sampled_on()
