"""The ``repro dse`` subcommand end to end (in-process via main())."""

import json

from repro.cli import main

SMOKE_ARGS = ["dse", "--space", "smoke", "--budget", "6", "--seed", "3",
              "--rungs", "1", "2", "--jobs", "2"]


def _run(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_dse_smoke_runs_and_exports(tmp_path, capsys):
    out_dir = tmp_path / "out"
    rc, out, err = _run(
        SMOKE_ARGS + ["--cache-dir", str(tmp_path / "cache"),
                      "--out", str(out_dir)], capsys)
    assert rc == 0
    assert "Pareto front: space=smoke" in out
    front = json.loads((out_dir / "dse_front.json").read_text())
    assert front["space"] == "smoke"
    assert front["evaluations"] == 6
    assert front["front"]
    assert (out_dir / "dse_front.csv").read_text().splitlines()[0] \
        .endswith("latency,energy,wires")
    assert (out_dir / "dse.txt").exists()
    assert "6 simulated" in err


def test_dse_warm_rerun_reproduces_stdout_with_zero_simulation(
        tmp_path, capsys):
    args = SMOKE_ARGS + ["--cache-dir", str(tmp_path)]
    rc1, out1, _ = _run(args, capsys)
    rc2, out2, err2 = _run(args, capsys)
    assert (rc1, rc2) == (0, 0)
    assert out1 == out2
    assert "(100%), 0 simulated" in err2


def test_dse_resume_flag_reports_completed_runs(tmp_path, capsys):
    journal = tmp_path / "dse.jsonl"
    args = SMOKE_ARGS + ["--cache-dir", str(tmp_path / "cache")]
    rc, _, _ = _run(args + ["--journal", str(journal)], capsys)
    assert rc == 0
    rc, out, err = _run(args + ["--resume", str(journal)], capsys)
    assert rc == 0
    assert "resuming from" in err
    assert "run(s) already completed" in err
    assert "(100%), 0 simulated" in err


def test_dse_journal_replays_through_repro_resume(tmp_path, capsys):
    journal = tmp_path / "dse.jsonl"
    args = SMOKE_ARGS + ["--cache-dir", str(tmp_path / "cache"),
                         "--journal", str(journal)]
    rc, out1, _ = _run(args, capsys)
    assert rc == 0
    rc, out2, err = _run(["resume", str(journal)], capsys)
    assert rc == 0
    assert "resuming: repro dse" in err
    assert out1 == out2
    assert "(100%), 0 simulated" in err


def test_dse_metrics_snapshot(tmp_path, capsys):
    metrics = tmp_path / "metrics.json"
    rc, _, _ = _run(SMOKE_ARGS + ["--cache-dir", str(tmp_path / "c"),
                                  "--metrics", str(metrics)], capsys)
    assert rc == 0
    snapshot = json.loads(metrics.read_text())
    assert snapshot["counters"]["exec.attempts"] == 6
    assert snapshot["counters"]["exec.ok"] == 6
    assert not any(name.startswith("dse.") for name in snapshot["counters"])


def test_dse_rejects_unknown_space_and_objectives(tmp_path, capsys):
    rc, _, err = _run(["dse", "--space", "no-such-space",
                       "--cache-dir", str(tmp_path)], capsys)
    assert rc == 2
    assert "unknown space" in err
    rc, _, err = _run(SMOKE_ARGS + ["--cache-dir", str(tmp_path),
                                    "--objectives", "bogus"], capsys)
    assert rc == 2
    assert "bogus" in err


def test_dse_crossover_small(tmp_path, capsys):
    rc, out, _ = _run(
        ["dse", "--crossover", "--core-counts", "16", "--budget", "6",
         "--seed", "3", "--rungs", "1", "2", "--jobs", "2",
         "--cache-dir", str(tmp_path)], capsys)
    assert rc == 0
    assert "crossover headline:" in out
    assert "16 cores:" in out
