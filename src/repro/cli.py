"""Command-line interface: regenerate the paper's results from a shell.

Examples::

    python -m repro table1
    python -m repro fig5 --iterations 60
    python -m repro figs --cores 32 --scale 0.5
    python -m repro run --workload kern3 --barrier gl --cores 16
    python -m repro all --out results/
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .dse import DEFAULT_OBJECTIVES as DSE_DEFAULT_OBJECTIVES
from .exec import (ParallelRunner, ResultCache, RunFailureError,
                   SweepJournal, default_cache_dir, use_executor)
from .exec.supervisor import DEFAULT_RETRIES
from .faults import ChaosPlan
from .experiments import (contention_ablation, csw_variant_ablation,
                          dsw_arity_sweep, entry_overhead_sweep,
                          hierarchical_latency, noc_model_ablation,
                          period_sweep, run_collectives, run_fig5,
                          run_fig6_and_fig7, run_recovery,
                          run_integrity, run_resilience,
                          run_shootout, run_stages,
                          run_table1, run_table2)
from .experiments.energy_exp import run_energy
from .experiments.runner import run_benchmark
from .workloads import (EM3DWorkload, Kernel2Workload, Kernel3Workload,
                        Kernel6Workload, OceanWorkload,
                        SyntheticBarrierWorkload, UnstructuredWorkload)

WORKLOADS = {
    "synthetic": lambda scale: SyntheticBarrierWorkload(
        iterations=max(1, int(250 * scale))),
    "kern2": lambda scale: Kernel2Workload(
        iterations=max(1, int(30 * scale))),
    "kern3": lambda scale: Kernel3Workload(
        iterations=max(1, int(150 * scale))),
    "kern6": lambda scale: Kernel6Workload(
        n=256, iterations=max(1, int(2 * scale))),
    "ocean": lambda scale: OceanWorkload(phases=max(1, int(8 * scale))),
    "unstructured": lambda scale: UnstructuredWorkload(
        phases=max(1, int(8 * scale))),
    "em3d": lambda scale: EM3DWorkload(
        nodes=1920, steps=max(1, int(8 * scale))),
}

ABLATIONS = {
    "period": lambda cores: period_sweep(num_cores=cores, iterations=15),
    "overhead": lambda cores: entry_overhead_sweep(num_cores=cores,
                                                   iterations=40),
    "hierarchical": lambda cores: hierarchical_latency(iterations=25),
    "arity": lambda cores: dsw_arity_sweep(num_cores=cores, iterations=20),
    "contention": lambda cores: contention_ablation(num_cores=cores,
                                                    iterations=20),
    "csw": lambda cores: csw_variant_ablation(num_cores=cores,
                                              iterations=20),
    "nocmodel": lambda cores: noc_model_ablation(num_cores=min(cores, 16),
                                                 iterations=20),
}


def _emit(text: str, out: Path | None, name: str) -> None:
    print(text)
    print()
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{name}.txt").write_text(text + "\n")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--cores", type=int, default=32,
                        help="chip size for figures 6/7, table 2, energy")
    common.add_argument("--scale", type=float, default=0.5,
                        help="iteration-count multiplier (default 0.5)")
    common.add_argument("--out", type=Path, default=None,
                        help="directory to save rendered outputs")
    common.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes for independent runs "
                             "(default: all CPUs)")
    common.add_argument("--cache-dir", type=Path, default=None,
                        help="result-cache directory (default: "
                             "$REPRO_CACHE_DIR or ~/.cache/repro)")
    common.add_argument("--no-cache", action="store_true",
                        help="recompute every run; do not read or write "
                             "the result cache")
    common.add_argument("--metrics", type=Path, default=None,
                        metavar="PATH",
                        help="write the executor's metric snapshot to PATH "
                             "(.csv for CSV, anything else for JSON)")
    common.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-run wall-clock deadline; a run past it "
                             "is killed and retried")
    common.add_argument("--retries", type=int, default=DEFAULT_RETRIES,
                        metavar="N",
                        help=f"retries for crashed/timed-out runs "
                             f"(default {DEFAULT_RETRIES}; sim errors are "
                             f"deterministic and never retried)")
    common.add_argument("--keep-going", action="store_true",
                        help="on a run failure, continue the sweep and "
                             "report partial results instead of aborting")
    common.add_argument("--journal", type=Path, default=None,
                        metavar="PATH",
                        help="append a JSONL sweep journal at PATH "
                             "(enables 'repro resume PATH')")

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the G-line barrier paper's tables, "
                    "figures and ablations.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", parents=[common],
                   help="Table 1: CMP configuration")
    sub.add_parser("table2", parents=[common],
                   help="Table 2: barrier counts and periods")
    p5 = sub.add_parser("fig5", parents=[common],
                        help="Figure 5: barrier latency vs cores")
    p5.add_argument("--iterations", type=int, default=60)
    sub.add_parser("figs", parents=[common],
                   help="Figures 6 and 7 (one paired run)")
    sub.add_parser("energy", parents=[common],
                   help="network-energy proxy per benchmark")
    sub.add_parser("stages", parents=[common],
                   help="S1/S2/S3 barrier-stage decomposition")
    psh = sub.add_parser("shootout", parents=[common],
                         help="software-barrier comparison incl. "
                              "dissemination/tournament")
    psh.add_argument("--iterations", type=int, default=30)
    pco = sub.add_parser("collectives", parents=[common],
                         help="collective shootout: G-line bit-serial "
                              "all-reduce vs software NoC all-reduce")
    pco.add_argument("--iterations", type=int, default=24)
    pco.add_argument("--value-width", type=int, default=8,
                     help="operand width in bits (default 8)")
    pco.add_argument("--core-counts", type=int, nargs="+",
                     default=None,
                     help="chip sizes to sweep (default: 16 64 256)")
    pab = sub.add_parser("ablations", parents=[common],
                         help="design-choice ablations")
    pab.add_argument("names", nargs="*", choices=list(ABLATIONS),
                     help="subset to run (default: all)")
    prun = sub.add_parser("run", parents=[common],
                          help="run one benchmark, print summary")
    prun.add_argument("--workload", choices=sorted(WORKLOADS),
                      required=True)
    prun.add_argument("--barrier", default="gl",
                      choices=["gl", "dsw", "csw", "csw-fa"])
    prun.add_argument("--verify", action="store_true",
                      help="check the dataflow against the reference")
    # Deliberately NOT part of "all": the fault sweep is a robustness
    # diagnostic, not one of the paper's figures.
    pres = sub.add_parser("resilience", parents=[common],
                          help="fault sweep: GL barrier under G-line "
                               "stuck-at faults with watchdog failover")
    pres.add_argument("--rates", type=float, nargs="+", default=None,
                      help="stuck-at fault rates to sweep "
                           "(default: 0 1e-4 5e-4 2e-3)")
    pres.add_argument("--iterations", type=int, default=40)
    pres.add_argument("--seed", type=int, default=1,
                      help="fault-plan seed (sweeps are reproducible "
                           "per seed)")
    pres.add_argument("--failover", default="csw", choices=["csw", "dsw"],
                      help="software barrier used after failover")
    pres.add_argument("--recovery", action="store_true",
                      help="sweep the self-healing recovery FSM against "
                           "seeded intermittent bursts instead of "
                           "permanent stuck-at faults")
    pres.add_argument("--duties", type=float, nargs="+", default=None,
                      help="intermittent-burst duty cycles to sweep with "
                           "--recovery (default: 0.25 0.5 0.75 1.0)")
    # Like resilience, NOT part of "all": a robustness diagnostic.
    pin = sub.add_parser("integrity", parents=[common],
                         help="SDC sweep: undetected wrong collective "
                              "values vs S-CSMA miscount rate, per "
                              "verification mode")
    pin.add_argument("--rates", type=float, nargs="+", default=None,
                     help="miscount rates to sweep "
                          "(default: 2e-3 1e-2 2e-2)")
    pin.add_argument("--iterations", type=int, default=20)
    pin.add_argument("--seed", type=int, default=11,
                     help="fault-plan seed (sweeps are reproducible "
                          "per seed)")
    pin.add_argument("--modes", nargs="+", default=None,
                     choices=["off", "echo", "residue", "vote"],
                     help="integrity modes (default: all four)")
    # Observability: one traced run, exported as a viewable artifact.
    # Not under ``common``: its --out names the artifact *file*, not a
    # directory of rendered tables.
    ptr = sub.add_parser("trace",
                         help="run one traced experiment and export the "
                              "trace (repro.obs)")
    ptr.add_argument("experiment", choices=["fig5"] + sorted(WORKLOADS),
                     help="'fig5' traces one synthetic fig5 point; any "
                          "workload name traces that benchmark")
    ptr.add_argument("--format", dest="fmt", default="perfetto",
                     choices=["perfetto", "vcd", "jsonl"],
                     help="artifact format (default: perfetto JSON)")
    ptr.add_argument("--out", type=Path, default=None,
                     help="artifact file (default: trace.<ext>)")
    ptr.add_argument("--iterations", type=int, default=10,
                     help="barrier iterations for the fig5 point")
    ptr.add_argument("--cores", type=int, default=32)
    ptr.add_argument("--scale", type=float, default=0.5)
    ptr.add_argument("--barrier", default="gl",
                     choices=["gl", "dsw", "csw", "csw-fa"])
    ptr.add_argument("--capacity", type=int, default=None,
                     help="trace ring capacity (default 65536; 0 means "
                          "unbounded)")
    ptr.add_argument("--jobs", type=int, default=None,
                     help=argparse.SUPPRESS)
    ptr.add_argument("--cache-dir", type=Path, default=None,
                     help="result cache to seed (the trace's result is "
                          "stored so an untraced rerun cache-hits)")
    ptr.add_argument("--no-cache", action="store_true")
    ptr.add_argument("--metrics", type=Path, default=None, metavar="PATH",
                     help="write this run's metric snapshot to PATH")
    # Formal verification: model-check the barrier FSMs (repro.verify).
    pv = sub.add_parser("verify", parents=[common],
                        help="model-check the G-line barrier FSMs: "
                             "exhaustive state-space exploration, fault "
                             "scenarios, counterexample replay")
    pv.add_argument("--mesh", default="2x2", metavar="RxC",
                    help="mesh shape to verify, e.g. 4x4 (default 2x2)")
    pv.add_argument("--scenario", default="fault-free",
                    help="fault scenario name (see --list)")
    pv.add_argument("--mutation", default=None,
                    help="deliberate FSM bug to inject (see --list); "
                         "the checker must refute safety")
    pv.add_argument("--episodes", type=int, default=1,
                    help="barrier episodes per core (default 1)")
    pv.add_argument("--shard-depth", type=int, default=0, metavar="D",
                    help="split the exploration at BFS depth D and fan "
                         "the shards out over --jobs workers and the "
                         "result cache (default 0: single process)")
    pv.add_argument("--max-states", type=int, default=2_000_000,
                    help="state cap per (sharded) exploration")
    pv.add_argument("--export-prefix", type=Path, default=None,
                    metavar="PREFIX",
                    help="on a violation, replay it on the real "
                         "simulator and write PREFIX.perfetto.json + "
                         "PREFIX.vcd")
    pv.add_argument("--no-replay", action="store_true",
                    help="skip the simulator replay of a counterexample")
    pv.add_argument("--list", action="store_true", dest="list_registry",
                    help="list known scenarios and mutations, then exit")
    # Sweep maintenance: these act on journals/caches, not experiments,
    # so they take only the flags they need.
    pre = sub.add_parser("resume",
                         help="continue an interrupted sweep from its "
                              "journal (completed runs are cache hits, "
                              "never re-simulated)")
    pre.add_argument("journal", type=Path, help="journal written by a "
                     "previous run's --journal flag")
    # Wall-clock benchmarks: times experiments in-process, so it takes
    # only its own flags (no executor/cache machinery).
    pbe = sub.add_parser("bench",
                         help="time fig5/6/7 + stress cases, write "
                              "BENCH_*.json, gate against baselines "
                              "(repro.bench)")
    pbe.add_argument("names", nargs="*",
                     help="cases to run (default: all; see repro.bench)")
    pbe.add_argument("--quick", action="store_true",
                     help="smoke-scale variants (what CI runs)")
    pbe.add_argument("--backend", default="both",
                     choices=["heap", "batched", "both"],
                     help="engine backend(s) to time (default: both)")
    pbe.add_argument("--repeats", type=int, default=None, metavar="N",
                     help="repeats per case, median reported "
                          "(default: 3, or 2 with --quick)")
    pbe.add_argument("--out", type=Path, default=None, metavar="DIR",
                     help="directory for fresh BENCH_*.json snapshots "
                          "(e.g. CI artifacts; default: don't write)")
    pbe.add_argument("--baseline-dir", type=Path, default=None,
                     metavar="DIR",
                     help="committed baselines to gate against "
                          "(default: benchmarks/perf)")
    pbe.add_argument("--write", action="store_true",
                     help="refresh the baseline files in --baseline-dir "
                          "instead of gating against them")
    pbe.add_argument("--check", action="store_true",
                     help="exit 1 on any regression beyond tolerance")
    pbe.add_argument("--tolerance", type=float, default=None,
                     help="allowed normalized-score regression "
                          "(default 0.25)")
    pdse = sub.add_parser(
        "dse", parents=[common],
        help="Pareto design-space exploration over the G-line config "
             "space (repro.dse; see docs/dse.md)")
    pdse.add_argument("--space", default="default", metavar="NAME|FILE",
                      help="preset space name or JSON space file "
                           "(default: 'default'; presets: see "
                           "repro.dse.SPACES)")
    pdse.add_argument("--objectives", nargs="+",
                      default=list(DSE_DEFAULT_OBJECTIVES),
                      metavar="NAME",
                      help="objectives to minimize (default: "
                           f"{' '.join(DSE_DEFAULT_OBJECTIVES)}; also: "
                           "failover)")
    pdse.add_argument("--budget", type=int, default=40, metavar="N",
                      help="evaluation requests the search may spend "
                           "(cache hits included; default 40)")
    pdse.add_argument("--seed", type=int, default=7,
                      help="search seed (default 7); the whole "
                           "trajectory is deterministic per seed")
    pdse.add_argument("--rungs", type=int, nargs="+", default=None,
                      metavar="ITERS",
                      help="successive-halving fidelity rungs, workload "
                           "iterations (default: 3 6 12)")
    pdse.add_argument("--resume", type=Path, default=None,
                      metavar="JOURNAL",
                      help="shorthand for --journal JOURNAL plus a "
                           "completed-count report; with a warm cache "
                           "nothing finished is re-simulated")
    pdse.add_argument("--crossover", action="store_true",
                      help="run the per-mesh crossover study "
                           "(8x8/16x16 by default) instead of a single "
                           "search")
    pdse.add_argument("--core-counts", type=int, nargs="+", default=None,
                      metavar="N",
                      help="mesh sizes for --crossover (default 64 256)")
    pca = sub.add_parser("cache", help="inspect or maintain the result "
                                       "cache")
    pca.add_argument("action", choices=["stats", "clear", "prune"],
                     help="stats: entries/bytes/per-fingerprint; clear: "
                          "delete everything; prune: drop entries from "
                          "other code versions")
    pca.add_argument("--cache-dir", type=Path, default=None,
                     help="cache directory (default: $REPRO_CACHE_DIR "
                          "or ~/.cache/repro)")
    pca.add_argument("--dry-run", action="store_true",
                     help="with prune: report what would be evicted "
                          "(count/bytes, oldest first) without deleting")
    sub.add_parser("all", parents=[common], help="everything above")
    return parser


def main(argv: list[str] | None = None) -> int:
    raw_argv = list(argv) if argv is not None else sys.argv[1:]
    args = build_parser().parse_args(argv)
    if args.command == "resume":
        return _run_resume(args)
    if args.command == "cache":
        return _run_cache(args)
    if args.command == "bench":
        return _run_bench(args)
    if args.command == "dse":
        return _run_dse(args, raw_argv)
    journal_path = getattr(args, "journal", None)
    executor = _build_executor(args, raw_argv, journal_path,
                               keep_going=getattr(args, "keep_going",
                                                  False))
    if isinstance(executor, int):
        return executor
    journal, cache = executor.journal, executor.cache
    interrupted = False
    try:
        with use_executor(executor):
            try:
                rc = _dispatch(args)
            except KeyboardInterrupt:
                interrupted, rc = True, 130
                if journal is not None:
                    journal.interrupted()
            except RunFailureError as exc:
                _report_failures(exc.failures)
                rc = 1
            except Exception:
                if executor.keep_going and executor.failures:
                    # A driver choked on a keep-going hole (a None
                    # result); the partial work is cached -- report what
                    # failed instead of a bare traceback.
                    _report_failures(executor.failures)
                    rc = 1
                else:
                    raise
    finally:
        if journal is not None:
            journal.close()
    if executor.failures and rc == 0:
        _report_failures(executor.failures)
        rc = 1
    # The summary goes to stderr so stdout (the figure data) is
    # byte-identical whether results were simulated or served from cache.
    if cache is not None:
        print(f"[repro.exec] {executor.summary()}", file=sys.stderr)
    if interrupted or rc == 1:
        if journal_path is not None:
            print(f"[repro.exec] completed work is cached; continue "
                  f"with: repro resume {journal_path}", file=sys.stderr)
        if interrupted:
            print("[repro.exec] interrupted; workers drained, no "
                  "zombies left", file=sys.stderr)
    metrics_path = getattr(args, "metrics", None)
    if metrics_path is not None:
        if metrics_path.suffix == ".csv":
            executor.metrics.to_csv(metrics_path)
        else:
            executor.metrics.to_json(metrics_path)
        print(f"[repro.obs] metrics snapshot written to {metrics_path}",
              file=sys.stderr)
    return rc


def _build_executor(args, raw_argv: list[str], journal_path: Path | None,
                    keep_going: bool) -> ParallelRunner | int:
    """The executor the ``--jobs``/``--cache-dir``/``--timeout``/
    ``--retries`` flags, ``$REPRO_CHAOS`` and *journal_path* describe --
    or exit code 2 after reporting a usage error."""
    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    if jobs < 1:
        print(f"error: --jobs must be >= 1, got {jobs}", file=sys.stderr)
        return 2
    cache_dir = args.cache_dir or default_cache_dir()
    if cache_dir.exists() and not cache_dir.is_dir():
        print(f"error: --cache-dir {cache_dir} exists and is not a "
              f"directory", file=sys.stderr)
        return 2
    chaos = ChaosPlan.from_env()
    if chaos is not None and chaos.enabled:
        print(f"[repro.exec] chaos enabled: {chaos}", file=sys.stderr)
    journal = SweepJournal(journal_path, argv=raw_argv) \
        if journal_path is not None else None
    return ParallelRunner(
        jobs=jobs, cache=None if args.no_cache else ResultCache(cache_dir),
        timeout=getattr(args, "timeout", None),
        retries=getattr(args, "retries", DEFAULT_RETRIES),
        keep_going=keep_going, journal=journal, chaos=chaos)


def _report_failures(failures) -> None:
    for failure in failures:
        print(f"[repro.exec] FAILED {failure}", file=sys.stderr)


def _run_resume(args) -> int:
    """Replay the command recorded in a sweep journal.

    The journal's argv includes its own ``--journal`` flag, so the replay
    appends to the same file; completed specs are served by the result
    cache, so nothing already finished is re-simulated.
    """
    from .exec import JournalError

    try:
        recorded = SweepJournal.load_argv(args.journal)
    except JournalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not recorded or recorded[0] in ("resume", "cache"):
        print(f"error: journal {args.journal} does not record a "
              f"resumable command (argv={recorded})", file=sys.stderr)
        return 2
    done = len(SweepJournal.completed_keys(args.journal))
    print(f"[repro.exec] resuming: repro {' '.join(recorded)}  "
          f"({done} run(s) already completed)", file=sys.stderr)
    return main(recorded)


def _run_dse(args, raw_argv: list[str]) -> int:
    """``repro dse``: Pareto search (or crossover study) over one
    executor; handled outside the generic executor path because the
    search owns dispatch.  Always runs keep-going: a design point that
    fails at runtime is an infeasible design, not a fatal error."""
    from .common.errors import ReproError
    from .dse import front_csv, front_json, run_search, space_from_arg
    from .experiments import run_dse_crossover

    try:
        space = space_from_arg(args.space)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    journal_path = args.resume if args.resume is not None \
        else args.journal
    runner = _build_executor(args, raw_argv, journal_path, keep_going=True)
    if isinstance(runner, int):
        return runner
    if args.resume is not None and args.resume.exists():
        done = len(SweepJournal.completed_keys(args.resume))
        print(f"[repro.dse] resuming from {args.resume} "
              f"({done} run(s) already completed)", file=sys.stderr)
    journal = runner.journal
    rc = 0
    try:
        rungs = tuple(args.rungs) if args.rungs else None
        if args.crossover:
            kwargs = {"rungs": rungs} if rungs else {}
            if args.core_counts:
                kwargs["core_counts"] = tuple(args.core_counts)
            result = run_dse_crossover(
                budget=args.budget, seed=args.seed,
                objectives=tuple(args.objectives),
                runner=runner, **kwargs)
            _emit(result.table(), args.out, "dse_crossover")
        else:
            kwargs = {"rungs": rungs} if rungs else {}
            search = run_search(
                space, tuple(args.objectives), budget=args.budget,
                seed=args.seed, runner=runner, **kwargs)
            _emit(search.table(), args.out, "dse")
            if args.out is not None:
                args.out.mkdir(parents=True, exist_ok=True)
                (args.out / "dse_front.json").write_text(
                    front_json(search), encoding="utf-8")
                (args.out / "dse_front.csv").write_text(
                    front_csv(search), encoding="utf-8")
                print(f"[repro.dse] front exported to "
                      f"{args.out}/dse_front.{{json,csv}}",
                      file=sys.stderr)
    except KeyboardInterrupt:
        rc = 130
        if journal is not None:
            journal.interrupted()
            print(f"[repro.exec] completed work is cached; continue "
                  f"with: repro resume {journal_path}", file=sys.stderr)
        print("[repro.exec] interrupted; workers drained, no zombies "
              "left", file=sys.stderr)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        rc = 2
    finally:
        if journal is not None:
            journal.close()
    if runner.failures:
        _report_failures(runner.failures)
        print(f"[repro.dse] {len(runner.failures)} point(s) failed "
              f"at runtime and were treated as infeasible",
              file=sys.stderr)
    if runner.cache is not None:
        print(f"[repro.dse] {runner.summary()}", file=sys.stderr)
    if args.metrics is not None:
        if args.metrics.suffix == ".csv":
            runner.metrics.to_csv(args.metrics)
        else:
            runner.metrics.to_json(args.metrics)
        print(f"[repro.obs] metrics snapshot written to {args.metrics}",
              file=sys.stderr)
    return rc


def _run_bench(args) -> int:
    """``repro bench``: time cases, snapshot, gate against baselines.

    Exit codes: 0 ok; 1 a regression beyond tolerance with ``--check``;
    2 usage errors (unknown case, incomparable baseline).
    """
    from .bench import (CASES, DEFAULT_REPEATS, DEFAULT_TOLERANCE,
                        BenchSnapshot, calibrate, compare_snapshots,
                        get_case, load_snapshot, run_case, write_snapshot)
    from .bench.runner import BenchError, config_digest

    names = args.names or sorted(CASES)
    try:
        cases = [get_case(name) for name in names]
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    backends = ["heap", "batched"] if args.backend == "both" \
        else [args.backend]
    repeats = args.repeats if args.repeats is not None \
        else (2 if args.quick else DEFAULT_REPEATS)
    tolerance = args.tolerance if args.tolerance is not None \
        else DEFAULT_TOLERANCE

    calibration_eps = calibrate()
    print(f"[repro.bench] calibration: {calibration_eps:,.0f} "
          f"events/sec (pure-python reference loop)", file=sys.stderr)

    regressed = False
    for case in cases:
        snapshot = BenchSnapshot(name=case.name, quick=args.quick,
                                 config_digest=config_digest(
                                     case, args.quick))
        for backend in backends:
            meas = run_case(case, backend, quick=args.quick,
                            repeats=repeats,
                            calibration_eps=calibration_eps)
            snapshot.backends[backend] = meas
            print(f"{case.name:<12} {backend:<8} "
                  f"median {meas.median_wall_s * 1000:8.1f} ms   "
                  f"{meas.events_per_sec:12,.0f} ev/s   "
                  f"norm {meas.normalized_score:.3f}   "
                  f"({meas.events:,} events x{meas.repeats})")
        # --write refreshes the committed baselines; --out drops fresh
        # snapshots elsewhere (CI artifacts).  A plain run writes nothing.
        if args.write:
            path = write_snapshot(snapshot, args.baseline_dir)
            print(f"[repro.bench] wrote {path}", file=sys.stderr)
        elif args.out is not None:
            path = write_snapshot(snapshot, args.out)
            print(f"[repro.bench] wrote {path}", file=sys.stderr)
        if not args.write:
            baseline = load_snapshot(case.name, args.baseline_dir)
            if baseline is None:
                print(f"[repro.bench] no baseline for {case.name}; "
                      f"seed one with: repro bench --write "
                      + ("--quick " if args.quick else "") + case.name,
                      file=sys.stderr)
                continue
            try:
                comparisons = compare_snapshots(snapshot, baseline,
                                                tolerance=tolerance)
            except BenchError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            for comp in comparisons:
                print("[repro.bench] " + comp.summary())
                regressed = regressed or comp.regressed
    if regressed and args.check:
        print("[repro.bench] regression beyond tolerance (see above)",
              file=sys.stderr)
        return 1
    return 0


def _run_cache(args) -> int:
    """``repro cache stats|clear|prune``."""
    cache_dir = args.cache_dir or default_cache_dir()
    if cache_dir.exists() and not cache_dir.is_dir():
        print(f"error: --cache-dir {cache_dir} exists and is not a "
              f"directory", file=sys.stderr)
        return 2
    cache = ResultCache(cache_dir)
    if args.action == "stats":
        stats = cache.stats()
        print(f"cache directory: {cache.directory}")
        print(f"entries: {stats['entries']}  "
              f"bytes: {stats['bytes']}  corrupt: {stats['corrupt']}")
        from .exec import code_fingerprint
        current = code_fingerprint()
        for code, count in stats["by_code"].items():
            marker = "  (current)" if code == current else ""
            print(f"  {code[:16]}: {count} entries{marker}")
    elif args.action == "clear":
        print(f"removed {cache.clear()} entries from {cache.directory}")
    elif args.dry_run:
        candidates = cache.prune_candidates()
        total = sum(size for _, size, _ in candidates)
        print(f"would prune {len(candidates)} stale entries "
              f"({total} bytes) from {cache.directory}")
        for path, size, _ in candidates:       # oldest first
            print(f"  {path.relative_to(cache.directory)}  "
                  f"{size} bytes")
    else:
        print(f"pruned {cache.prune()} stale entries from "
              f"{cache.directory}")
    return 0


def _dispatch(args) -> int:
    command = args.command

    if command in ("table1", "all"):
        _emit(run_table1(), args.out, "table1")
    if command in ("table2", "all"):
        _emit(run_table2(num_cores=args.cores, scale=args.scale).table(),
              args.out, "table2")
    if command in ("fig5", "all"):
        iterations = getattr(args, "iterations", 60)
        result = run_fig5(iterations=iterations)
        _emit(result.table(), args.out, "fig5")
        if not result.is_ordered():
            print("WARNING: CSW > DSW > GL ordering violated",
                  file=sys.stderr)
            return 1
    if command in ("figs", "all"):
        fig6, fig7 = run_fig6_and_fig7(num_cores=args.cores,
                                       scale=args.scale)
        _emit(fig6.table() + "\n\n" + fig6.stacked_table(), args.out,
              "fig6")
        _emit(fig7.table() + "\n\n" + fig7.stacked_table(), args.out,
              "fig7")
    if command in ("energy", "all"):
        result = run_energy(num_cores=args.cores, scale=args.scale)
        text = result.table() + (
            f"\naverage network-energy reduction: "
            f"{result.average_reduction() * 100:.1f}%  "
            f"(G-line share of GL energy: "
            f"{result.gline_share() * 100:.2f}%)")
        _emit(text, args.out, "energy")
    if command in ("stages", "all"):
        result = run_stages(num_cores=args.cores, scale=args.scale)
        _emit(result.table(), args.out, "stages")
    if command in ("shootout", "all"):
        iterations = getattr(args, "iterations", 30)
        result = run_shootout(iterations=iterations)
        _emit(result.table(), args.out, "shootout")
    if command in ("collectives", "all"):
        kwargs = {}
        if getattr(args, "core_counts", None):
            kwargs["core_counts"] = tuple(args.core_counts)
        result = run_collectives(
            iterations=getattr(args, "iterations", 24),
            value_width=getattr(args, "value_width", 8), **kwargs)
        _emit(result.table(), args.out, "collectives")
    if command in ("ablations", "all"):
        names = getattr(args, "names", None) or list(ABLATIONS)
        for name in names:
            _emit(ABLATIONS[name](args.cores).table(), args.out,
                  f"ablation_{name}")
    if command == "resilience":
        if args.recovery:
            kwargs = {}
            if args.duties is not None:
                kwargs["duties"] = tuple(args.duties)
            result = run_recovery(num_cores=args.cores,
                                  iterations=args.iterations,
                                  seed=args.seed, failover=args.failover,
                                  **kwargs)
            _emit(result.table(), args.out, "resilience_recovery")
        else:
            kwargs = {}
            if args.rates is not None:
                kwargs["rates"] = tuple(args.rates)
            result = run_resilience(num_cores=args.cores,
                                    iterations=args.iterations,
                                    seed=args.seed, failover=args.failover,
                                    **kwargs)
            _emit(result.table(), args.out, "resilience")
    if command == "integrity":
        kwargs = {}
        if args.rates is not None:
            kwargs["rates"] = tuple(args.rates)
        if args.modes is not None:
            kwargs["modes"] = tuple(args.modes)
        result = run_integrity(num_cores=args.cores,
                               iterations=args.iterations,
                               seed=args.seed, **kwargs)
        _emit(result.table(), args.out, "integrity")
    if command == "run":
        from .chip.cmp import CMP
        from .experiments.runner import paper_config

        workload = WORKLOADS[args.workload](args.scale)
        chip = CMP(paper_config(args.cores), barrier=args.barrier)
        result = chip.run(workload)
        print(result.summary())
        if args.verify:
            workload.verify(chip)
            print("dataflow verified against the reference")
    if command == "trace":
        return _run_trace(args)
    if command == "verify":
        return _run_verify(args)
    return 0


#: Artifact file extension per trace format.
TRACE_EXTENSIONS = {"perfetto": "json", "vcd": "vcd", "jsonl": "jsonl"}


def _run_trace(args) -> int:
    """One fully-observed run, exported as a trace artifact.

    The run's *result* is cached with the metrics snapshot stripped, so a
    later untraced run of the same point is a byte-identical cache hit --
    tracing seeds the cache, it never forks it.
    """
    from .exec import RunSpec, current_executor
    from .obs import (DEFAULT_CAPACITY, Observability, write_jsonl,
                      write_perfetto, write_vcd)

    if args.experiment == "fig5":
        # Exactly the spec run_fig5 builds for this (barrier, cores) point.
        workload = SyntheticBarrierWorkload(iterations=args.iterations)
    else:
        workload = WORKLOADS[args.experiment](args.scale)
    spec = RunSpec.make(workload, args.barrier, num_cores=args.cores)
    capacity = DEFAULT_CAPACITY if args.capacity is None \
        else (None if args.capacity == 0 else args.capacity)
    obs = Observability.full(args.cores, capacity=capacity)
    result = spec.execute(obs=obs)

    executor = current_executor()
    executor.misses += 1
    executor.metrics.counter("exec.cache.misses").inc()
    key = None
    if executor.cache is not None:
        key = spec.key()
        executor.cache.put(key, spec.fingerprint(),
                           dict(result.to_dict(), metrics={}))

    ext = TRACE_EXTENSIONS[args.fmt]
    out = args.out if args.out is not None else Path(f"trace.{ext}")
    events = obs.tracer.events
    if args.fmt == "perfetto":
        write_perfetto(events, out, accounting=obs.tracer.accounting())
    elif args.fmt == "vcd":
        write_vcd(events, out)
    else:
        write_jsonl(events, out)
    if key is not None:
        # Keep a copy keyed next to the cache entry, so the artifact that
        # explains a cached number is findable from the number's key.
        keyed = executor.cache.directory / key[:2] / f"{key}.trace.{ext}"
        keyed.parent.mkdir(parents=True, exist_ok=True)
        keyed.write_bytes(Path(out).read_bytes())

    executor.metrics.merge(obs.metrics)
    acc = obs.tracer.accounting()
    print(f"[repro.obs] {out} ({args.fmt}): {acc['retained']} events "
          f"retained, {acc['dropped']} dropped, {acc['filtered']} filtered",
          file=sys.stderr)
    if key is not None:
        print(f"[repro.obs] artifact keyed at {key[:2]}/{key}.trace.{ext}",
              file=sys.stderr)
    print(result.summary())
    return 0


def _run_verify(args) -> int:
    """``repro verify``: model-check one (mesh, scenario, mutation).

    Exit codes: 0 when the outcome matches the scenario's registered
    expectation (all properties proved, or -- for violation demos and
    mutations -- a counterexample found *and*, unless ``--no-replay``,
    confirmed on the real simulator); 1 otherwise; 2 for usage errors.
    """
    from . import verify as v
    from .exec import current_executor

    if args.list_registry:
        print("scenarios:")
        for name in sorted(v.SCENARIOS):
            sc = v.SCENARIOS[name]
            print(f"  {name} [{sc.expect}]: {sc.description}")
        print("mutations:")
        for name in sorted(v.MUTATIONS):
            print(f"  {name}: {v.MUTATIONS[name].description}")
        return 0
    try:
        rows_s, _, cols_s = args.mesh.lower().partition("x")
        rows, cols = int(rows_s), int(cols_s)
    except ValueError:
        print(f"error: --mesh must look like RxC, got {args.mesh!r}",
              file=sys.stderr)
        return 2
    try:
        scenario = v.get_scenario(args.scenario)
        if args.mutation is not None:
            v.get_mutation(args.mutation)
        model = v.GLBarrierModel(rows, cols, scenario=scenario,
                                 mutation=args.mutation,
                                 episodes=args.episodes)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.shard_depth > 0:
        prefixes, early = v.shard_prefixes(model, args.shard_depth)
        if early is not None:
            # The violation is shallower than the shard depth; a direct
            # exploration refinds it immediately with full verdicts.
            result = v.explore(model, max_states=args.max_states)
        else:
            specs = [v.VerifyShardSpec(
                         rows=rows, cols=cols, scenario=scenario.name,
                         mutation=args.mutation, episodes=args.episodes,
                         prefix=p, max_states=args.max_states)
                     for p in prefixes]
            print(f"[repro.verify] {len(specs)} shard(s) at depth "
                  f"{args.shard_depth}", file=sys.stderr)
            shard_results = current_executor().run(specs)
            result = v.merge_shards(
                [r for r in shard_results if r is not None], model)
    else:
        result = v.explore(model, max_states=args.max_states)

    print(v.render_report(model, result))

    replay = None
    conc_path = None
    if result.violation is not None:
        print()
        print(v.render_counterexample(model, result.violation))
        if not args.no_replay:
            conc_path = v.concretize(model,
                                     result.violation.action_indices)
            replay = v.replay_on_simulator(
                rows, cols, conc_path.schedules, scenario=scenario,
                mutation=args.mutation, glitches=conc_path.glitches)
            print(f"simulator replay: {replay.summary()}")
            if args.export_prefix is not None:
                paths = v.export_counterexample(
                    replay, args.export_prefix,
                    {"property": result.violation.prop,
                     "message": result.violation.message})
                print(f"[repro.verify] counterexample exported: "
                      f"{paths['perfetto']}, {paths['vcd']}",
                      file=sys.stderr)

    if args.out is not None:
        args.out.write_text(json.dumps(
            v.report_dict(model, result, path=conc_path, replay=replay),
            indent=2, sort_keys=True) + "\n")
        print(f"[repro.verify] report written: {args.out}",
              file=sys.stderr)

    expect = scenario.expect
    if args.mutation is not None:
        expect = "violation"    # mutations must be refuted
    if expect == "violation":
        ok = result.violation is not None and (
            args.no_replay or (replay is not None and replay.confirmed))
    else:
        ok = result.ok and all(
            verdict in ("proved", "skipped")
            for verdict in result.properties.values())
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
