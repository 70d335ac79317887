"""The ``repro verify`` subcommand end to end.

Exit-code contract: 0 when the run matches the scenario's registered
expectation -- every property proved for ``pass``/``failover``
scenarios, a counterexample found *and* confirmed on the simulator for
``violation`` scenarios and mutations -- and 1 on a mismatch, 2 on
usage errors.
"""

import json

from repro.cli import main


def test_fault_free_proof_pins_golden_counts(capsys):
    rc = main(["verify", "--mesh", "2x2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "states=28 transitions=87" in out
    assert out.count(": PROVED") == 4
    assert "expectation [pass]: MATCHED" in out


def test_list_registry(capsys):
    rc = main(["verify", "--list"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "fault-free [pass]:" in out
    assert "mh-early-flag:" in out


def test_mutation_finds_confirms_and_exports(tmp_path, capsys):
    prefix = tmp_path / "cex"
    out_json = tmp_path / "report.json"
    rc = main(["verify", "--mesh", "2x2", "--mutation", "mh-early-flag",
               "--export-prefix", str(prefix), "--out", str(out_json)])
    captured = capsys.readouterr()
    assert rc == 0      # violation expected, found, and confirmed
    assert "property safety: VIOLATED" in captured.out
    assert "EARLY RELEASE CONFIRMED" in captured.out
    assert "counterexample exported" in captured.err
    assert prefix.with_suffix(".perfetto.json").exists()
    assert prefix.with_suffix(".vcd").exists()
    report = json.loads(out_json.read_text())
    assert report["kind"] == "verify-report"
    assert report["properties"]["safety"] == "violated"
    assert report["replay"]["confirmed"] is True
    assert report["expectation"]["matched"] is True


def test_failover_scenario_matches_expectation(capsys):
    rc = main(["verify", "--mesh", "2x4", "--scenario",
               "stuck-row-tx-low"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "expectation [failover]: MATCHED" in out
    assert "property four-cycle: SKIPPED" in out


def test_sharded_run_agrees_with_direct(tmp_path, capsys):
    rc = main(["verify", "--mesh", "2x4", "--shard-depth", "2",
               "--jobs", "2", "--cache-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "shard(s) at depth 2" in captured.err
    assert "cache hits" in captured.err
    assert captured.out.count(": PROVED") == 4


def test_unsharded_run_prints_no_executor_summary(tmp_path, capsys):
    """Only ``--shard-depth`` runs go through the executor; a direct
    exploration prints no cache summary for it."""
    rc = main(["verify", "--mesh", "2x2", "--cache-dir", str(tmp_path)])
    assert rc == 0
    assert "[repro.exec]" not in capsys.readouterr().err


def test_capped_exploration_fails_the_expectation(capsys):
    rc = main(["verify", "--mesh", "3x3", "--max-states", "20"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "capped=true" in out
    assert "NOT-PROVED" in out


def test_usage_errors_exit_2(capsys):
    assert main(["verify", "--mesh", "banana"]) == 2
    capsys.readouterr()
    assert main(["verify", "--scenario", "no-such"]) == 2
    capsys.readouterr()
    assert main(["verify", "--mesh", "9x9"]) == 2
