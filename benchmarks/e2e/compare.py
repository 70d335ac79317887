"""Compare end-to-end benchmark results of two commits.

Each argument is a directory of files (or a single file) holding the
stdout of ``run.py``; a run is identified by the detail record on the
line before its result.  Runs of the two sides are paired by seed.

    python3 benchmarks/e2e/compare.py PARENT CHANGE
    python3 benchmarks/e2e/compare.py --agree SET_A SET_B

The default mode prints, per workload and metric, whether the change
``improved``, ``regressed``, left it ``unchanged`` or is ``unresolved``:

* improved -- the change wins at least 9/10 of the pairs (ties count for
  neither) and the medians differ by more than the parent's
  inter-quartile distance;
* regressed -- the change's median is worse than the parent's by more
  than the metric's bound (per-layer metrics, which have no bound: the
  improved rule with the sides swapped);
* unresolved -- neither, and the parent's own spread is wider than the
  bound;
* unchanged -- otherwise.

``--agree`` checks two sets of runs of one commit against the
benchmark's own bounds: each end-to-end metric's spread (except
``setup_s``'s) stays within its bound in both sets, and the second
median is not worse than the first by more than the bound.

Exits 1 when a run is incorrect, a metric regressed or the sets do not
agree.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from common import load_spec, quartiles, spread

WIN_SHARE = 0.9


def load_runs(source: str) -> list[dict]:
    """Every run in *source* as ``{workload, seed, trace, correct,
    metrics}``."""
    path = Path(source)
    files = sorted(path.iterdir()) if path.is_dir() else [path]
    runs = []
    for file in files:
        records = []
        for line in file.read_text().splitlines():
            try:
                records.append(json.loads(line))
            except ValueError:
                continue
        details = [r["detail"] for r in records
                   if isinstance(r, dict) and "detail" in r]
        if not details or "metrics" not in records[-1]:
            continue
        result, detail = records[-1], details[-1]
        runs.append({"workload": detail["workload"],
                     "seed": detail["seed"], "trace": detail["trace"],
                     "correct": result["correct"],
                     "metrics": {k: v["value"]
                                 for k, v in result["metrics"].items()}})
    return runs


def grouped(runs: list[dict]) -> dict[tuple[str, int], list[dict]]:
    groups: dict[tuple[str, int], list[dict]] = {}
    for run in runs:
        groups.setdefault((run["workload"], run["trace"]), []).append(run)
    return groups


def worse_share(metric: dict, base: float, other: float) -> float:
    """How much worse *other* is than *base*, as a share of *base*."""
    if not base:
        return 0.0
    delta = (other - base) / base
    return delta if metric["better"] == "lower" else -delta


def better(metric: dict, a: float, b: float) -> bool:
    """True when *a* reads strictly better than *b*."""
    return a < b if metric["better"] == "lower" else a > b


def verdict(metric: dict, parent: list[dict], change: list[dict]) -> dict:
    name = metric["name"]
    by_seed = {r["seed"]: r["metrics"][name] for r in parent}
    pairs = [(by_seed[r["seed"]], r["metrics"][name]) for r in change
             if r["seed"] in by_seed]
    p_vals = [r["metrics"][name] for r in parent]
    c_vals = [r["metrics"][name] for r in change]
    p_q1, p_med, p_q3 = quartiles(p_vals)
    c_med = quartiles(c_vals)[1]
    wins = sum(better(metric, c, p) for p, c in pairs)
    losses = sum(better(metric, p, c) for p, c in pairs)
    clear = abs(c_med - p_med) > p_q3 - p_q1
    worse = worse_share(metric, p_med, c_med)
    bound = metric.get("bound")
    if pairs and clear and wins >= WIN_SHARE * len(pairs):
        outcome = "improved"
    elif bound is None:
        regressed = pairs and clear and losses >= WIN_SHARE * len(pairs)
        outcome = "regressed" if regressed else "unchanged"
    elif worse > bound:
        outcome = "regressed"
    elif spread(p_vals) > bound:
        outcome = "unresolved"
    else:
        outcome = "unchanged"
    return {"parent": p_med, "change": c_med, "worse": worse,
            "wins": wins, "pairs": len(pairs), "outcome": outcome}


def compare(parent: list[dict], change: list[dict], spec: dict) -> bool:
    ok = all(r["correct"] for r in parent + change)
    p_groups, c_groups = grouped(parent), grouped(change)
    print(f"{'workload':10} {'metric':28} {'parent':>12} {'change':>12} "
          f"{'worse':>8} {'wins':>6}  outcome")
    for key in sorted(set(p_groups) & set(c_groups)):
        metrics = spec["per_layer" if key[1] else "end_to_end"]
        for metric in metrics:
            v = verdict(metric, p_groups[key], c_groups[key])
            print(f"{key[0]:10} {metric['name']:28} {v['parent']:12.5g} "
                  f"{v['change']:12.5g} {v['worse']:+8.1%} "
                  f"{v['wins']:>2}/{v['pairs']:<3}  {v['outcome']}")
            if v["outcome"] == "regressed" and not key[1]:
                ok = False
    return ok


def agree(first: list[dict], second: list[dict], spec: dict) -> bool:
    ok = all(r["correct"] for r in first + second)
    a_groups, b_groups = grouped(first), grouped(second)
    print(f"{'workload':10} {'metric':18} {'bound':>6} {'spread A':>9} "
          f"{'spread B':>9} {'B vs A':>8}  verdict")
    for key in sorted(k for k in set(a_groups) & set(b_groups)
                      if not k[1]):
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r["metrics"][name] for r in a_groups[key]]
            b = [r["metrics"][name] for r in b_groups[key]]
            worse = worse_share(metric, quartiles(a)[1], quartiles(b)[1])
            good = worse <= bound and (name == "setup_s" or (
                spread(a) <= bound and spread(b) <= bound))
            ok = ok and good
            print(f"{key[0]:10} {name:18} {bound:6.2f} {spread(a):9.3f} "
                  f"{spread(b):9.3f} {worse:+8.1%}  "
                  f"{'agree' if good else 'DISAGREE'}")
    return ok


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Compare end-to-end benchmark results.")
    parser.add_argument("--agree", action="store_true",
                        help="both sides are runs of one commit")
    parser.add_argument("first", help="parent runs (or set A)")
    parser.add_argument("second", help="change runs (or set B)")
    args = parser.parse_args(argv)
    first, second = load_runs(args.first), load_runs(args.second)
    if not first or not second:
        print("no runs found", file=sys.stderr)
        return 1
    check = agree if args.agree else compare
    return 0 if check(first, second, load_spec()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
