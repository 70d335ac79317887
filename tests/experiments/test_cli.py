"""CLI tests (invoking main() in-process)."""

import pytest

from repro.cli import WORKLOADS, build_parser, main
from repro.experiments import manifest


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path_factory, monkeypatch):
    """Keep CLI invocations from touching the user's real result cache."""
    monkeypatch.setenv("REPRO_CACHE_DIR",
                       str(tmp_path_factory.mktemp("cli-cache")))


def test_table1_command(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out and "32" in out


def test_run_command_with_verify(capsys):
    rc = main(["run", "--workload", "kern3", "--barrier", "gl",
               "--cores", "4", "--scale", "0.05", "--verify"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "barrier=GL" in out
    assert "verified" in out


def test_run_command_dsw(capsys):
    rc = main(["run", "--workload", "synthetic", "--barrier", "dsw",
               "--cores", "4", "--scale", "0.02"])
    assert rc == 0
    assert "barrier=DSW" in capsys.readouterr().out


def test_run_command_builds_no_executor(capsys):
    """`run` simulates in-process: no cache summary, no executor flags."""
    assert main(["run", "--workload", "synthetic", "--cores", "4",
                 "--scale", "0.02"]) == 0
    assert "[repro.exec]" not in capsys.readouterr().err
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--workload", "synthetic",
                                   "--jobs", "2"])


def test_ablation_subset(capsys):
    rc = main(["ablations", "entry_overhead"])
    assert rc == 0
    assert "entry overhead" in capsys.readouterr().out


def test_out_directory_saves_files(tmp_path, capsys):
    rc = main(["table1", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "table1.txt").exists()


def test_fig5_jobs_and_cache_round_trip(tmp_path, capsys):
    """Cold parallel run populates the cache; the warm rerun is all hits
    and byte-identical on stdout."""
    args = ["fig5", "--iterations", "1", "--jobs", "2",
            "--cache-dir", str(tmp_path)]
    assert main(args) == 0
    cold = capsys.readouterr()
    assert "cache hits (0%)" in cold.err
    assert main(args) == 0
    warm = capsys.readouterr()
    assert "(100%), 0 simulated" in warm.err
    assert warm.out == cold.out


def test_no_cache_flag_disables_cache(tmp_path, capsys):
    rc = main(["fig5", "--iterations", "1", "--no-cache",
               "--cache-dir", str(tmp_path)])
    assert rc == 0
    err = capsys.readouterr().err
    assert "cache hits" not in err          # no summary when disabled
    assert not any(tmp_path.iterdir())      # nothing written


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["nonsense"])


def test_workload_registry_complete():
    assert set(WORKLOADS) == {"synthetic", "kern2", "kern3", "kern6",
                              "ocean", "unstructured", "em3d"}
    ablations = {exp.name for exp in manifest.MANIFEST
                 if exp.command == "ablations"}
    assert ablations == {"period_sweep", "entry_overhead", "hierarchical",
                         "dsw_arity", "contention", "csw_variant",
                         "noc_model"}


def test_workload_factories_scale():
    for factory in WORKLOADS.values():
        wl = factory(0.01)
        assert wl.info().num_barriers >= 1


# ---------------------------------------------------------------------- #
# trace command (repro.obs)
# ---------------------------------------------------------------------- #
def test_trace_command_all_formats(tmp_path, capsys):
    from repro.obs import parse_vcd, validate_perfetto
    import json

    for fmt, ext in [("perfetto", "json"), ("vcd", "vcd"),
                     ("jsonl", "jsonl")]:
        out = tmp_path / f"trace.{ext}"
        rc = main(["trace", "fig5", "--format", fmt, "--out", str(out),
                   "--iterations", "1", "--cores", "4",
                   "--cache-dir", str(tmp_path / "cache")])
        assert rc == 0
        captured = capsys.readouterr()
        assert "events retained" in captured.err
        assert "barrier=GL" in captured.out
        assert out.exists()
        if fmt == "perfetto":
            assert validate_perfetto(json.loads(out.read_text())) > 0
        elif fmt == "vcd":
            assert "glnet.SglineV.level" in parse_vcd(out.read_text())
        else:
            lines = out.read_text().splitlines()
            assert lines and all(
                json.loads(ln)["kind"] for ln in lines)


def test_trace_writes_metrics_snapshot(tmp_path):
    metrics = tmp_path / "metrics.json"
    rc = main(["trace", "fig5", "--iterations", "1", "--cores", "4",
               "--out", str(tmp_path / "t.json"), "--no-cache",
               "--metrics", str(metrics)])
    assert rc == 0
    import json
    snap = json.loads(metrics.read_text())
    assert snap["counters"]["gline.episodes"] >= 1
    assert "gline.episode_latency" in snap["histograms"]


def test_trace_seeds_cache_for_untraced_fig5(tmp_path, capsys):
    """Tracing a fig5 point stores its (metrics-stripped) result: the
    untraced figure run hits the cache for that point and its table is
    byte-identical to a fully-simulated one."""
    cache = str(tmp_path / "cache")
    assert main(["fig5", "--iterations", "1",
                 "--cache-dir", str(tmp_path / "fresh")]) == 0
    golden = capsys.readouterr().out

    assert main(["trace", "fig5", "--iterations", "1", "--cores", "4",
                 "--barrier", "gl", "--out", str(tmp_path / "t.json"),
                 "--cache-dir", cache]) == 0
    traced = capsys.readouterr()
    assert "artifact keyed at" in traced.err

    assert main(["fig5", "--iterations", "1", "--cache-dir", cache]) == 0
    warm = capsys.readouterr()
    assert "1/12 cache hits" in warm.err
    assert warm.out == golden


def test_trace_keys_artifact_next_to_cache_entry(tmp_path):
    cache = tmp_path / "cache"
    assert main(["trace", "fig5", "--iterations", "1", "--cores", "4",
                 "--out", str(tmp_path / "t.vcd"), "--format", "vcd",
                 "--cache-dir", str(cache)]) == 0
    keyed = list(cache.glob("*/*.trace.vcd"))
    assert len(keyed) == 1
    assert keyed[0].read_bytes() == (tmp_path / "t.vcd").read_bytes()
    # The stripped result entry sits beside it.
    assert keyed[0].with_name(
        keyed[0].name.replace(".trace.vcd", ".json")).exists()
