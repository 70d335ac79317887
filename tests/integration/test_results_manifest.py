"""The results manifest against the committed ``results/`` directory.

The full check is ``repro all --out DIR`` followed by ``diff -r results
DIR`` (CI's results-check job); here the entries that regenerate in
under two seconds serially are compared byte for byte.
"""

from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis.validation import Check
from repro.cli import main
from repro.experiments import manifest

RESULTS = Path(__file__).resolve().parents[2] / "results"
BY_NAME = {exp.name: exp for exp in manifest.MANIFEST}

FAST = ("table1", "area", "period_sweep", "entry_overhead", "hierarchical",
        "dsw_arity", "noc_model", "sensitivity_memory",
        "sensitivity_router", "sensitivity_l2")


def test_manifest_names_every_committed_file():
    names = [name for exp in manifest.MANIFEST for name in exp.files]
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(p.name for p in RESULTS.iterdir())


@pytest.mark.parametrize("name", FAST)
def test_fast_entry_regenerates_byte_identical(name):
    exp = BY_NAME[name]
    result = exp.run()
    for filename, render in exp.files.items():
        assert render(result) == (RESULTS / filename).read_text(), filename
    failed = [str(c) for c in exp.checks(result) if not c.passed]
    assert not failed


def test_failing_check_makes_all_exit_1(tmp_path, monkeypatch, capsys):
    table1 = BY_NAME["table1"]
    monkeypatch.setattr(manifest, "MANIFEST", (table1,))
    assert main(["all", "--out", str(tmp_path), "--no-cache"]) == 0
    planted = replace(table1, checks=lambda result: [
        Check("planted.always_fails", False, "planted for this test")])
    monkeypatch.setattr(manifest, "MANIFEST", (planted,))
    assert main(["all", "--out", str(tmp_path), "--no-cache"]) == 1
    assert "planted.always_fails" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["table1.txt"]
    assert (tmp_path / "table1.txt").read_bytes() == \
        (RESULTS / "table1.txt").read_bytes()
