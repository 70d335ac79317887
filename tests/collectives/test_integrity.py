"""End-to-end integrity layer: detection modes, the recovery ladder,
bounded bookkeeping, and the off-mode silent-corruption characterization.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import canonical_digest

from repro.collectives import ops
from repro.collectives.config import CollectiveConfig
from repro.collectives.controllers import M_ROUNDS
from repro.collectives.fabric import CollectiveFabric
from repro.collectives.hierarchical import HierarchicalCollectiveNetwork
from repro.collectives.network import CollectiveNetwork
from repro.common.errors import ConfigError
from repro.common.params import GLineConfig
from repro.common.stats import StatsRegistry
from repro.faults import FAILOVER
from repro.gline.integrity import (INTEGRITY_MODES, RESIDUE_MOD,
                                   full_jitter, majority, residue_of)
from repro.gline.context import FAILOVER_REPORT_CAP, build_sync_contexts
from repro.sim.engine import Engine

MODES = [m for m in INTEGRITY_MODES if m != "off"]


# ---------------------------------------------------------------------- #
# repro.gline.integrity primitives
# ---------------------------------------------------------------------- #
def test_residue_arithmetic():
    assert RESIDUE_MOD == 15
    for j in range(12):
        # A +-2^j corruption is never congruent to zero mod the Mersenne
        # modulus: every single-round miscount shifts the residue.
        assert (1 << j) % RESIDUE_MOD != 0
    assert residue_of(15) == 0 and residue_of(16) == 1


def test_majority():
    assert majority([1, 1, 0]) == 1
    assert majority([0, 1, 0]) == 0
    assert majority([2, 2, 2]) == 2
    assert majority([0, 1]) is None
    assert majority([0, 1, 2]) is None


def test_full_jitter_is_deterministic_and_bounded():
    a = full_jitter("net", 3, 1)
    assert a == full_jitter("net", 3, 1)
    assert a != full_jitter("net", 3, 2) or a == 0  # attempt-salted
    for attempt in range(8):
        assert 0 <= full_jitter("n", 0, attempt) < 64


# ---------------------------------------------------------------------- #
# Config plumbing
# ---------------------------------------------------------------------- #
def test_config_validates_integrity_mode():
    for mode in INTEGRITY_MODES:
        CollectiveConfig(integrity=mode)
    with pytest.raises(ConfigError):
        CollectiveConfig(integrity="parity")
    with pytest.raises(ConfigError):
        CollectiveConfig(integrity_retry_budget=-1)


def test_config_to_dict_is_byte_stable_at_defaults():
    d = CollectiveConfig().to_dict()
    assert "integrity" not in d
    assert "integrity_retry_budget" not in d
    d2 = CollectiveConfig(integrity="echo", integrity_retry_budget=5
                          ).to_dict()
    assert d2["integrity"] == "echo"
    assert d2["integrity_retry_budget"] == 5
    rt = CollectiveConfig.from_dict(d2)
    assert rt.integrity == "echo" and rt.integrity_retry_budget == 5


# ---------------------------------------------------------------------- #
# Lockstep fabric: every mode completes cleanly and agrees with off
# ---------------------------------------------------------------------- #
def _lockstep(rows, cols, kind, values, width=4, mode="off",
              perturb=None, budget=3, max_ticks=4000):
    fab = CollectiveFabric(rows, cols, width, 6, integrity=mode,
                           integrity_budget=budget)
    fab.begin(kind)
    fab.perturb_hook = perturb
    for i, v in enumerate(values):
        fab.arrive_local(i, v)
    delivered = {}
    ticks = 0
    while not fab.done and ticks < max_ticks:
        for local, value in fab.tick():
            delivered[local] = value
        ticks += 1
    return fab, delivered, ticks


@pytest.mark.parametrize("mode", INTEGRITY_MODES)
@pytest.mark.parametrize("kind", ops.KINDS)
def test_clean_run_all_modes_all_kinds(mode, kind):
    values = [(3 * i + 2) % 16 for i in range(12)]
    ref = ops.reference_reduce(kind, values, 4)
    fab, delivered, ticks = _lockstep(3, 4, kind, values, mode=mode)
    assert fab.done and ticks < 4000
    assert set(delivered.values()) == {ref}
    assert not fab.int_flagged, f"{mode}/{kind} flagged a clean run"


def test_verified_modes_cost_more_ticks_than_off():
    values = [(3 * i + 2) % 16 for i in range(16)]
    costs = {m: _lockstep(4, 4, "sum", values, mode=m)[2]
             for m in INTEGRITY_MODES}
    assert costs["off"] < costs["residue"] < costs["echo"] < costs["vote"]


# ---------------------------------------------------------------------- #
# Satellite: Hypothesis characterization of the off-mode vulnerability.
# A single seeded miscount yields a wrong SUM while the op "succeeds".
# ---------------------------------------------------------------------- #
@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(2, 4), st.integers(2, 5),
       st.data())
def test_off_mode_single_miscount_silently_corrupts_sum(
        rows, cols, width, data):
    n = rows * cols
    values = data.draw(st.lists(
        st.integers(1, (1 << width) - 1), min_size=n, max_size=n))
    ref = ops.reference_reduce("sum", values, width)
    injected = [False]

    def perturb(lines):
        if injected[0]:
            return
        for m in fab.rmasters:
            # Undercount the first data round with a nonzero count:
            # never clamped, always a real corruption.
            if m.tx is not None and m.state == M_ROUNDS \
                    and m.tx._asserting:
                m.tx.count_delta = -1
                injected[0] = True
                return

    fab = CollectiveFabric(rows, cols, width, 6)
    fab.begin("sum")
    fab.perturb_hook = perturb
    for i, v in enumerate(values):
        fab.arrive_local(i, v)
    delivered = {}
    ticks = 0
    while not fab.done and ticks < 4000:
        for local, value in fab.tick():
            delivered[local] = value
        ticks += 1
    assert injected[0], "values guarantee an assertable data round"
    # The operation completes and reports success to every core...
    assert fab.done and len(delivered) == n
    assert not fab.int_flagged
    # ...but the value is silently wrong, for everyone.
    assert set(delivered.values()) != {ref}


@pytest.mark.parametrize("mode,healed", [("echo", True), ("vote", True),
                                         ("residue", False)])
def test_single_miscount_handled_by_every_verified_mode(mode, healed):
    values = [3, 5, 7, 2]
    ref = ops.reference_reduce("sum", values, 4)
    injected = [False]

    def perturb(lines):
        if injected[0]:
            return
        m = fab.rmasters[0]
        if m.state == M_ROUNDS and not m.confirming \
                and m.tx._asserting:
            m.tx.count_delta = -1
            injected[0] = True

    fab = CollectiveFabric(2, 2, 4, 6, integrity=mode)
    fab.begin("sum")
    fab.perturb_hook = perturb
    for i, v in enumerate(values):
        fab.arrive_local(i, v)
    delivered = {}
    ticks = 0
    while not fab.done and ticks < 4000:
        for local, value in fab.tick():
            delivered[local] = value
        ticks += 1
    assert injected[0] and fab.done
    corrections = sum(m.int_corrected for m in fab._all_masters())
    assert fab.int_flagged or corrections, \
        f"{mode} missed the corruption"
    if healed:
        # echo retries the round in-wire (flagged); vote out-votes the
        # bad sample silently (a correction, no fault flag).
        assert set(delivered.values()) == {ref}
        assert not fab.int_exhausted
        if mode == "vote":
            assert corrections >= 1 and not fab.int_flagged
    else:
        # residue detects at the end of the stage: no round retry, the
        # fabric completes exhausted and the network escalates.
        assert fab.int_exhausted


# ---------------------------------------------------------------------- #
# The network recovery ladder: retry -> whole-op retry -> failover
# ---------------------------------------------------------------------- #
def _ladder_run(integrity, inject_rounds, budget=1, wd_retries=1):
    eng = Engine()
    stats = StatsRegistry(4)
    cc = CollectiveConfig(enabled=True, value_width=4,
                          integrity=integrity,
                          integrity_retry_budget=budget,
                          watchdog_budget=400, watchdog_retries=wd_retries)
    net = CollectiveNetwork(eng, stats, 2, 2, GLineConfig(), cc)
    results = {}
    vals = [3, 5, 7, 2]
    for cid in range(4):
        net.arrive(cid, "sum", vals[cid],
                   (lambda c: lambda v: results.__setitem__(c, v))(cid))
    count = [0]

    def hook(lines):
        m = net.fabric.rmasters[0]
        if count[0] < inject_rounds and m.state == M_ROUNDS \
                and not m.confirming and m.iphase == 0:
            m.tx.count_delta = -1
            count[0] += 1

    net.fabric.perturb_hook = hook
    eng.run(until=8000)
    ref = ops.reference_reduce("sum", vals, 4)
    return results, ref, net, stats


def test_ladder_rung1_round_retry_heals():
    results, ref, net, stats = _ladder_run("echo", inject_rounds=1)
    assert set(results.values()) == {ref}
    assert net.int_detections >= 1 and net.int_round_retries >= 1
    assert net.int_op_retries == 0 and net.int_failovers == 0
    assert stats.counters["faults.integrity.detections"] >= 1
    assert stats.counters["faults.integrity.round_retries"] >= 1
    assert list(net.integrity_log)


def test_ladder_rung2_and_3_escalate_then_failover():
    results, ref, net, stats = _ladder_run("echo", inject_rounds=500)
    assert set(results.values()) == {FAILOVER}
    assert net.int_op_retries >= 1 and net.int_failovers == 1
    assert net.quarantined
    assert stats.counters["faults.integrity.exhausted"] >= 2
    assert stats.counters["faults.integrity.op_retries"] >= 1
    assert stats.counters["faults.integrity.failovers"] == 1


def test_off_mode_network_delivers_silently_wrong_value():
    results, ref, net, stats = _ladder_run("off", inject_rounds=1)
    assert len(results) == 4
    assert set(results.values()) != {ref}
    assert net.int_detections == 0 and not net.quarantined
    assert "faults.integrity.detections" not in stats.counters


def test_vote_mode_corrects_without_detection_event():
    results, ref, net, stats = _ladder_run("vote", inject_rounds=1)
    assert set(results.values()) == {ref}
    assert net.int_detections == 0
    assert net.int_corrections >= 1
    assert stats.counters["faults.integrity.corrections"] >= 1


# ---------------------------------------------------------------------- #
# Satellite: bounded bookkeeping -- capped deques, drop counters
# ---------------------------------------------------------------------- #
def test_integrity_log_is_capped_with_drop_counter():
    eng = Engine()
    stats = StatsRegistry(4)
    cc = CollectiveConfig(enabled=True, integrity="echo")
    net = CollectiveNetwork(eng, stats, 2, 2, GLineConfig(), cc)
    assert net.integrity_log.maxlen == FAILOVER_REPORT_CAP
    for i in range(FAILOVER_REPORT_CAP + 17):
        net._log_integrity(f"entry {i}")
    assert len(net.integrity_log) == FAILOVER_REPORT_CAP
    assert net.integrity_log_dropped == 17
    assert stats.counters["faults.integrity.log_dropped"] == 17
    # The oldest entries were dropped, not the newest.
    assert list(net.integrity_log)[-1] == f"entry {FAILOVER_REPORT_CAP + 16}"


def test_failover_reports_are_capped_with_drop_counter():
    eng = Engine()
    stats = StatsRegistry(4)
    cc = CollectiveConfig(enabled=True)
    net = CollectiveNetwork(eng, stats, 2, 2, GLineConfig(), cc)
    assert net.failover_reports.maxlen == FAILOVER_REPORT_CAP
    for _ in range(FAILOVER_REPORT_CAP + 5):
        net.failover()
    assert len(net.failover_reports) == FAILOVER_REPORT_CAP
    assert net.failover_reports_dropped == 5
    assert stats.counters["faults.collective.reports_dropped"] == 5


# ---------------------------------------------------------------------- #
# Hierarchical: segment failover under sustained corruption
# ---------------------------------------------------------------------- #
def _hier_run(segment_mode, inject_rounds):
    eng = Engine()
    stats = StatsRegistry(16)
    cc = CollectiveConfig(enabled=True, value_width=4, integrity="echo",
                          integrity_retry_budget=1,
                          watchdog_budget=400, watchdog_retries=1)
    gl = GLineConfig(max_transmitters=1, segment_failover=segment_mode)
    net = HierarchicalCollectiveNetwork(eng, stats, 4, 4, gl, cc)
    results = {}
    vals = [(i % 13) + 1 for i in range(16)]
    for cid in range(16):
        net.arrive(cid, "sum", vals[cid],
                   (lambda c: lambda v: results.__setitem__(c, v))(cid))
    cl0 = net.clusters[0]
    count = [0]

    def hook(lines):
        m = cl0.fabric.rmasters[0]
        if count[0] < inject_rounds and m.state == M_ROUNDS \
                and not m.confirming and m.iphase == 0:
            m.tx.count_delta = -1
            count[0] += 1

    cl0.fabric.perturb_hook = hook
    eng.run(until=40000)
    ref = ops.reference_reduce("sum", vals, 4)
    return results, ref, net, stats


def test_segment_failover_contains_a_corrupt_cluster():
    results, ref, net, stats = _hier_run(True, inject_rounds=500)
    # The poisoned cluster degrades to a software cohort; the other
    # three clusters and the top network stay on hardware, and every
    # core still gets the bit-exact global result.
    assert len(results) == 16 and set(results.values()) == {ref}
    assert net.segment_failovers == 1 and not net.quarantined
    assert stats.counters["faults.collective.segment_failovers"] == 1
    assert stats.counters["faults.collective.segment_arrivals"] >= 4
    assert net.int_detections >= 1    # aggregated integrity counters


def test_without_segment_mode_corruption_aborts_whole_op():
    results, ref, net, stats = _hier_run(False, inject_rounds=500)
    assert set(results.values()) == {FAILOVER}
    assert net.quarantined and net.segment_failovers == 0


def test_segment_mode_is_inert_on_clean_runs():
    results, ref, net, stats = _hier_run(True, inject_rounds=0)
    assert set(results.values()) == {ref}
    assert net.segment_failovers == 0 and net.int_detections == 0


# ---------------------------------------------------------------------- #
# Time-multiplexed contexts pass the integrity counters through
# ---------------------------------------------------------------------- #
def test_timemux_context_exposes_integrity_counters():
    eng = Engine()
    stats = StatsRegistry(4)
    cc = CollectiveConfig(enabled=True, value_width=4, integrity="echo",
                          time_slots=2)
    ctxs = build_sync_contexts(
        CollectiveNetwork, HierarchicalCollectiveNetwork, eng, stats, 2, 2,
        GLineConfig(), name="colltm", slots=cc.time_slots, coll_config=cc)
    results = {}
    for cid in range(4):
        ctxs[0].arrive(cid, "sum", cid + 1,
                       (lambda c: lambda v: results.__setitem__(c, v))(cid))
    eng.run(until=4000)
    assert set(results.values()) == {10}
    assert ctxs[0].int_detections == 0
    assert ctxs[0].int_round_retries == 0
    assert ctxs[0].int_corrections == 0
    assert ctxs[0].int_op_retries == 0
    assert ctxs[0].int_failovers == 0
    assert list(ctxs[0].integrity_log) == []


# ---------------------------------------------------------------------- #
# Full-chip: seeded miscount plans through the ISA
# ---------------------------------------------------------------------- #
CHIP_KINDS = ("sum", "min", "max", "vote", "bcast") * 3


def _chip_run(integrity, seed=11, rate=0.02):
    from repro.chip.cmp import CMP
    from repro.common.params import CMPConfig
    from repro.cpu import isa
    from repro.faults import FaultPlan

    cc = CollectiveConfig(enabled=True, value_width=8, integrity=integrity,
                          watchdog_budget=600, watchdog_retries=2)
    plan = FaultPlan(seed=seed, scsma_miscount_rate=rate)
    cfg = CMPConfig.for_cores(16, collectives=cc).with_(faults=plan)
    chip = CMP(cfg, barrier="gl")
    results = {}

    def prog(cid):
        for ep, kind in enumerate(CHIP_KINDS):
            value = (cid * 7 + ep * 3 + 1) % 256
            outcome = yield isa.CollectiveOp(kind, value=value)
            results[(ep, cid)] = outcome
            yield isa.Compute(1 + cid % 3)

    run = chip.run([prog(c) for c in range(16)])
    wrong = []
    for (ep, cid), got in sorted(results.items()):
        vals = [(c * 7 + ep * 3 + 1) % 256 for c in range(16)]
        want = ops.reference_reduce(CHIP_KINDS[ep], vals, 8)
        if got != want:
            wrong.append((ep, cid, got, want))
    return run, results, wrong, chip.stats.counters


def test_chip_off_mode_seeded_miscounts_silently_corrupt():
    # The hypothesis the integrity layer exists to kill: with verification
    # off, seeded S-CSMA miscounts deliver WRONG reduction values while
    # every op still reports success (no failover, no exception).
    _, results, wrong, counters = _chip_run("off")
    assert counters["faults.gline.miscounts"] > 0
    assert wrong, "seed 11 must corrupt at least one episode at off"
    assert FAILOVER not in set(results.values())
    assert counters.get("faults.integrity.detections", 0) == 0


@pytest.mark.parametrize("mode", ["echo", "residue"])
def test_chip_verified_modes_zero_undetected_wrong_values(mode):
    # Same seeded grid that corrupts off-mode: echo/residue detect and
    # heal every miscount -- zero wrong values end to end.
    _, _, wrong, counters = _chip_run(mode)
    assert not wrong, wrong
    assert counters["faults.integrity.detections"] > 0


#: total_cycles and sha256 of the canonical-JSON results plus integrity
#: and G-line fault counters of the seeded echo run: pins the timing of
#: every detection, retry, escalation and failover on the ladder.
ECHO_CHIP_PIN = (1291, "928f65685cfebce9c13cf661d3bc1e44"
                       "4ce3bd28dc6098099db577bb5faf2533")


def test_chip_integrity_run_matches_pinned_digest():
    run, results, _, counters = _chip_run("echo")
    assert run.total_cycles == ECHO_CHIP_PIN[0]
    assert canonical_digest({
        "results": sorted([*key, value] for key, value in results.items()),
        "counters": {k: v for k, v in counters.items()
                     if k.startswith(("faults.integrity", "faults.gline"))},
    }) == ECHO_CHIP_PIN[1]


# ---------------------------------------------------------------------- #
# SDC sweep (experiments/integrity.py) and the hierarchical mesh
# ---------------------------------------------------------------------- #
def test_sdc_sweep_off_corrupts_verified_modes_do_not():
    from repro.experiments.integrity import run_integrity

    r = run_integrity(rates=(0.01,), num_cores=16)
    assert r.sdc("off", 0.01) > 0
    for mode in ("echo", "residue", "vote"):
        assert r.sdc(mode, 0.01) == 0, mode
    table = r.table()
    assert "corruption-free: yes" in table


def test_hierarchical_chip_survives_seeded_miscounts():
    # Regression for three cluster-level protocol holes under gather/
    # broadcast miscounts: a duplicate upward park after a mid-broadcast
    # watchdog retry, an episode split between hardware results and a
    # software cohort that could never form, and a watchdog that never
    # armed when deliveries preceded the last arrival.
    from repro.experiments.integrity import run_integrity

    r = run_integrity(rates=(0.02,), num_cores=32, iterations=15)
    assert r.sdc("off", 0.02) > 0          # vulnerable, but it completes
    for mode in ("echo", "residue", "vote"):
        row = r.rows[(mode, 0.02)]
        assert row["wrong"] == 0, (mode, row)
        assert row["detections"] > 0, (mode, row)


#: Sweep points whose failovers, taken by a sibling cluster's abort or
#: by a watchdog expiry while the integrity free-run clocked the
#: context, once left a tick scheduled on the closed episode (it failed
#: with "ticking a closed episode").
CLOSED_EPISODE_POINTS = [
    (64, "off", 0.05, 1), (64, "echo", 0.08, 2), (64, "residue", 0.05, 11),
    (64, "residue", 0.08, 11), (64, "residue", 0.08, 1),
    (64, "vote", 0.02, 1), (64, "vote", 0.05, 1), (64, "vote", 0.05, 2),
]


def _sdc_chip(cores, mode, rate, seed):
    from repro.chip.cmp import CMP
    from repro.experiments.integrity import integrity_config
    from repro.gline.context import Hierarchy

    chip = CMP(integrity_config(cores, mode, rate, seed), barrier="gl")
    ticks = []
    for ctx in chip.collective_impl.networks:
        for net in ctx.levels if isinstance(ctx, Hierarchy) else [ctx]:
            def logged(net=net, tick=net._tick):
                ticks.append((net.name, net.engine.now))
                tick()
            net._tick = logged
    return chip, ticks


@pytest.mark.parametrize("cores,mode,rate,seed", CLOSED_EPISODE_POINTS)
def test_failover_between_ticks_leaves_no_tick_behind(cores, mode, rate,
                                                      seed):
    from repro.workloads.collective import CollectiveSDCWorkload

    chip, ticks = _sdc_chip(cores, mode, rate, seed)
    chip.run(CollectiveSDCWorkload(iterations=20))
    assert chip.stats.counters["faults.collective.failovers"] > 0
    assert len(ticks) == len(set(ticks))


def test_watchdog_retry_never_ticks_a_context_twice_a_cycle():
    # 16 cores, vote, 0.05, seed 11: watchdog retries taken while the
    # clock ran once started a second tick chain (292 cycles ticked
    # twice).
    from repro.workloads.collective import CollectiveSDCWorkload

    chip, ticks = _sdc_chip(16, "vote", 0.05, 11)
    chip.run(CollectiveSDCWorkload(iterations=20))
    assert chip.stats.counters["faults.collective.retries"] > 0
    assert len(ticks) == len(set(ticks))


# ---------------------------------------------------------------------- #
# Trace audit: scripts/validate_trace.py --collective over an integrity
# recovery episode
# ---------------------------------------------------------------------- #
def _load_validate_trace():
    import importlib.util
    from pathlib import Path

    spec = importlib.util.spec_from_file_location(
        "validate_trace",
        Path(__file__).resolve().parents[2] / "scripts"
        / "validate_trace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_chip_doc(integrity="echo", rate=0.02, seed=11):
    """Perfetto doc from a 16-core run with seeded miscounts."""
    from repro.chip.cmp import CMP
    from repro.common.params import CMPConfig
    from repro.cpu import isa
    from repro.faults import FaultPlan
    from repro.obs import Observability, to_perfetto

    cc = CollectiveConfig(enabled=True, value_width=8,
                          integrity=integrity, watchdog_budget=600,
                          watchdog_retries=2)
    plan = FaultPlan(seed=seed, scsma_miscount_rate=rate)
    cfg = CMPConfig.for_cores(16, collectives=cc).with_(faults=plan)
    obs = Observability.full(16, capacity=None)
    chip = CMP(cfg, barrier="gl", obs=obs)

    def prog(cid):
        for ep, kind in enumerate(CHIP_KINDS):
            yield isa.CollectiveOp(kind, value=(cid * 7 + ep * 3 + 1) % 256)
            yield isa.Compute(1 + cid % 3)

    chip.run([prog(c) for c in range(16)])
    return to_perfetto(obs.tracer.events)


def test_trace_audit_passes_on_recovered_episodes(tmp_path):
    import json

    vt = _load_validate_trace()
    doc = _traced_chip_doc()
    fails = [e for e in doc["traceEvents"]
             if e.get("name") == "gline.integrity.fail"]
    assert fails, "seeded run must detect corrupted rounds"
    path = tmp_path / "collective.perfetto.json"
    path.write_text(json.dumps(doc))
    message = vt.check_collective(path)
    assert "integrity failures" in message
    assert message.endswith("OK")


def test_trace_audit_catches_unrecovered_failure(tmp_path):
    import json

    import pytest as _pytest

    vt = _load_validate_trace()
    doc = _traced_chip_doc()
    recovery = {"gline.integrity.retry", "gline.integrity.escalate",
                "gline.integrity.failover"}
    doc["traceEvents"] = [e for e in doc["traceEvents"]
                          if e.get("name") not in recovery]
    path = tmp_path / "tampered.perfetto.json"
    path.write_text(json.dumps(doc))
    with _pytest.raises(ValueError, match="neither corrected nor "
                                          "retried|no recovery event"):
        vt.check_collective(path)
