"""Harness tests of the end-to-end benchmark (not part of tier 1).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py -q

The smoke runs use ``--tiny`` inputs and take about a minute in all.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parents[1] / "src")]

import common  # noqa: E402
import compare  # noqa: E402
import trace as layer_trace  # noqa: E402
import workloads  # noqa: E402
from child import Checker  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
POLLUTED_ENV = {"REPRO_SIM_BACKEND": "batched",
                "REPRO_CACHE_DIR": str(HERE / ".work" / "not-a-cache"),
                "REPRO_CHAOS": "seed=1,kill=0.5"}


def run_bench(workload: str, trace: int) -> tuple[dict, dict]:
    """``run.py`` on tiny inputs, from a polluted environment."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=common.ROOT, capture_output=True, text=True, timeout=170,
        env={**os.environ, **POLLUTED_ENV})
    assert proc.returncode == 0, proc.stderr
    *_, detail, result = proc.stdout.strip().splitlines()
    return json.loads(detail)["detail"], json.loads(result)


def units(metrics: list[dict]) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in metrics}


def uncalibrated() -> workloads.Timer:
    return workloads.Timer(calibrated=False)


@pytest.mark.parametrize("workload", common.WORKLOADS)
def test_tiny_smoke_clears_env_and_reports_every_metric(workload):
    detail, result = run_bench(workload, trace=0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == units(common.load_spec()["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert detail["env"] == dict.fromkeys(common.CLEARED_ENV)
    assert detail["backend"] == "heap"


def test_traced_run_reports_every_layer_metric():
    detail, result = run_bench("paper32", trace=1)
    assert result["correct"]
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == units(common.load_spec()["per_layer"])
    assert detail["absent"] == [] and detail["absent_layers"] == []
    for layer in ("sim", "noc", "mem.l1", "mem.directory", "cpu", "gline"):
        assert result["metrics"][f"{layer}.self_s"]["value"] > 0


def test_benchmark_json_names_and_units():
    spec = common.load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(common.WORKLOADS)
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in metrics)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_planted_digest_mismatch_counts_as_failed_op():
    outcomes = workloads.build("paper32", 3, tiny=True).run_pass(
        uncalibrated()).outcomes
    pins = {o["name"]: o["digest"] for o in outcomes}
    honest = Checker(pins)
    honest.add(outcomes)
    assert honest.summary()["failed"] == 0
    planted = Checker({**pins, outcomes[0]["name"]: "0" * 16})
    planted.add(outcomes)
    summary = planted.summary()
    assert summary["attempted"] == len(outcomes)
    assert summary["failed"] == 1
    assert "differs from the pinned digest" in summary["failures"][0]


def test_traced_pass_is_read_only_and_accounts_for_the_wall():
    from repro import sim
    from repro.mem.l1 import L1Cache

    assert Path(layer_trace.__file__).parent == HERE
    engine_class, load = sim.BACKENDS["heap"], L1Cache.load
    wl = workloads.build("fabric256", 3, tiny=True)
    plain = wl.run_pass(uncalibrated())
    wall, traced, prof, absent = layer_trace.traced_pass(wl, uncalibrated)
    assert absent == []
    assert ([o["digest"] for o in traced.outcomes]
            == [o["digest"] for o in plain.outcomes])
    assert abs(sum(prof.self_s.values()) - wall) <= 0.05 * wall
    assert prof.self_s["gline"] > 0 and prof.self_s["collectives"] > 0
    assert sim.BACKENDS["heap"] is engine_class and L1Cache.load is load


def test_missing_entry_point_is_reported_absent(monkeypatch):
    gone = ("repro.noc.network", "Network", ("gone",), "noc")
    monkeypatch.setattr(layer_trace, "METHOD_ENTRY_POINTS",
                        layer_trace.METHOD_ENTRY_POINTS + (gone,))
    with layer_trace.instrumented(layer_trace.LayerProfiler()) as absent:
        pass
    assert absent == ["repro.noc.network.Network.gone"]
    assert layer_trace.absent_layers(absent) == []
    assert layer_trace.absent_layers(
        absent + ["repro.noc.network.Network.send"]) == ["noc"]


def test_child_env_clears_engine_cache_and_chaos(monkeypatch):
    for key, value in POLLUTED_ENV.items():
        monkeypatch.setenv(key, value)
    env = common.child_env(HERE / ".work")
    assert not set(common.CLEARED_ENV) & set(env)
    assert env["PYTHONPATH"] == str(common.SRC)


def test_compare_verdicts():
    metric = {"name": "wall_s", "better": "lower", "bound": 0.1}

    def runs(values):
        return [{"seed": i, "metrics": {"wall_s": v}}
                for i, v in enumerate(values)]

    parent = runs([1.00, 1.01, 0.99, 1.02, 1.00, 0.98, 1.01, 1.00, 0.99,
                   1.00])
    faster = runs([v * 0.8 for v in (1.00, 1.01, 0.99, 1.02, 1.00, 0.98,
                                     1.01, 1.00, 0.99, 1.00)])
    slower = runs([v * 1.2 for v in (1.00, 1.01, 0.99, 1.02, 1.00, 0.98,
                                     1.01, 1.00, 0.99, 1.00)])
    noisy = runs([0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 1.0, 0.75, 1.25, 1.0])
    assert compare.verdict(metric, parent, faster)["outcome"] == "improved"
    assert compare.verdict(metric, parent, slower)["outcome"] == "regressed"
    assert compare.verdict(metric, parent, parent)["outcome"] == "unchanged"
    assert compare.verdict(metric, noisy, noisy)["outcome"] == "unresolved"
