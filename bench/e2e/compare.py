#!/usr/bin/env python3
"""Compares two sets of end-to-end benchmark results against BENCHMARK.json.

    python3 bench/e2e/compare.py A B [--same-code]

A and B are each a results file written by `run.py --out`, or a directory of
such files (one set of runs). Both sets must have run the same seeds, the
same smoke mode and the same rep counts for every workload; otherwise the
script exits 2 without a verdict. For every (workload, end-to-end metric) it
prints both medians, the change in the worse direction, the spread and the
verdict:

  ok          the change is within the bound;
  better      B improved by more than the bound;
  BREACH      B is worse than A by more than the bound;
  changed     a deterministic metric moved, but by no more than the bound;
  same        a deterministic metric reads exactly the same;
  unresolved  the spread is unknown (one run on a side) or exceeds the
              bound, so the runs cannot tell, unless every run of B reads
              better than every run of A.

Wall-clock metrics use the bound in BENCHMARK.json, and their spread is
(Q3 - Q1) / median over a side's runs. The deterministic metrics repeat
exactly for a given seed, so they are compared seed by seed and held to
SAME_SEED_BOUND; the larger bound in BENCHMARK.json covers comparisons
across different seeds. Deterministic counters of the same (workload, seed,
rep) must agree within a set, and with --same-code across the two sets too.
With --same-code the sets may differ in seeds or reps: the metric table is
then skipped and only the counters of the reps they share are compared.
The exit status is 1 on a breach, a wrong result or a determinism mismatch.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent

# End-to-end metrics that are functions of the simulated run alone.
DETERMINISTIC = {"commit_rate", "commit_p50_ms", "commit_p99_ms",
                 "msgs_per_commit"}
# Share by which a deterministic metric may worsen on the same seeds.
SAME_SEED_BOUND = 0.01


def load_set(path):
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = [json.loads(f.read_text()) for f in files]
    if not runs:
        sys.exit(f"no results in {path}")
    return runs


def run_key(run, result):
    """What makes two runs of one workload the same experiments."""
    return (run["seed"], run["smoke"], result["reps"])


def rep_sets(runs):
    """Distinct run keys of a set, per workload."""
    keys = {}
    for run in runs:
        for workload, result in run["workloads"].items():
            keys.setdefault(workload, set()).add(run_key(run, result))
    return {workload: sorted(k) for workload, k in keys.items()}


def spread(values):
    """(Q3 - Q1) / median, or None with fewer than two runs."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def metric_values(runs, workload, name):
    """Every run's value of one metric, with the run's key."""
    values = []
    for run in runs:
        result = run["workloads"].get(workload)
        if result is not None and name in result["end_to_end"]:
            values.append((run_key(run, result),
                           result["end_to_end"][name]["value"]))
    return values


def worse_by(a, b, better):
    """Relative change from a to b, positive when b is worse."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    return ((b - a) if better == "lower" else (a - b)) / abs(a)


def compare_wall(a, b, metric):
    """Verdict row for a wall-clock metric: medians, worse, spread, verdict."""
    a, b = [v for _, v in a], [v for _, v in b]
    a_med, b_med = statistics.median(a), statistics.median(b)
    worse = worse_by(a_med, b_med, metric["better"])
    spreads = [spread(a), spread(b)]
    bound = metric["bound"]
    if None in spreads:
        return a_med, b_med, worse, "?", bound, "unresolved"
    side_spread = max(spreads)
    if side_spread > bound:
        b_always_better = all(worse_by(x, y, metric["better"]) < 0
                              for x in a for y in b)
        verdict = "better" if b_always_better else "unresolved"
    elif worse > bound:
        verdict = "BREACH"
    elif worse < -bound:
        verdict = "better"
    else:
        verdict = "ok"
    return a_med, b_med, worse, f"{side_spread:.2%}", bound, verdict


def compare_deterministic(a, b, metric, errors):
    """Verdict row for a deterministic metric, compared seed by seed."""
    by_key = []
    for side, values in (("A", a), ("B", b)):
        seen = {}
        for key, value in values:
            if seen.setdefault(key, value) != value:
                errors.append(f"{side}: {metric['name']} differs between "
                              f"runs of seed {key[0]}")
        by_key.append(seen)
    a_by_key, b_by_key = by_key
    keys = sorted(a_by_key)
    a_med = statistics.median(a_by_key[k] for k in keys)
    b_med = statistics.median(b_by_key[k] for k in keys)
    worse = worse_by(a_med, b_med, metric["better"])
    if worse > SAME_SEED_BOUND:
        verdict = "BREACH"
    elif worse < -SAME_SEED_BOUND:
        verdict = "better"
    elif any(a_by_key[k] != b_by_key[k] for k in keys):
        verdict = "changed"
    else:
        verdict = "same"
    return a_med, b_med, worse, "exact", SAME_SEED_BOUND, verdict


def determinism_mismatches(runs_by_side, across_sides):
    """Counts reps whose deterministic counters disagree."""
    groups = {}
    for side, runs in runs_by_side.items():
        for run in runs:
            for workload, result in run["workloads"].items():
                for index, counters in enumerate(result["rep_counters"]):
                    key = (workload, run["seed"], index)
                    if not across_sides:
                        key += (side,)
                    groups.setdefault(key, []).append(counters)
    compared = sum(1 for g in groups.values() if len(g) > 1)
    differ = [k for k, g in groups.items() if any(c != g[0] for c in g)]
    return compared, differ


def print_table(spec, runs, errors):
    """Prints one row per (workload, end-to-end metric); True on a breach."""
    header = (f"{'workload':<11} {'metric':<20} {'A median':>13} "
              f"{'B median':>13} {'worse by':>9} {'spread':>7} {'bound':>6}  "
              "verdict")
    print(header)
    print("-" * len(header))
    breach = False
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = metric_values(runs["A"], workload, name)
            b = metric_values(runs["B"], workload, name)
            if not a or not b:
                continue
            if name in DETERMINISTIC:
                row = compare_deterministic(a, b, metric, errors)
            else:
                row = compare_wall(a, b, metric)
            a_med, b_med, worse, spread_text, bound, verdict = row
            breach |= verdict == "BREACH"
            print(f"{workload:<11} {name:<20} {a_med:>13.6g} {b_med:>13.6g} "
                  f"{worse:>+9.2%} {spread_text:>7} {bound:>6.2f}  {verdict}")
    return breach


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", help="baseline results file or directory")
    parser.add_argument("b", help="candidate results file or directory")
    parser.add_argument("--same-code", action="store_true",
                        help="A and B ran the same code: deterministic "
                             "counters must match across the sets")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = {"A": load_set(args.a), "B": load_set(args.b)}
    errors = []

    for side, side_runs in runs.items():
        for run in side_runs:
            for workload, result in run["workloads"].items():
                if not result["correct"]:
                    errors.append(f"{side}: {workload} seed {run['seed']} "
                                  f"reported wrong output: "
                                  f"{result.get('errors')}")

    a_sets, b_sets = rep_sets(runs["A"]), rep_sets(runs["B"])
    breach = False
    if a_sets == b_sets:
        breach = print_table(spec, runs, errors)
    else:
        message = ("A and B ran different (seed, smoke, reps) sets:\n"
                   f"  A: {a_sets}\n  B: {b_sets}")
        if not args.same_code:
            print(message + "\nno verdict: rerun one side on the other's "
                  "seeds and mode", file=sys.stderr)
            return 2
        print(message + "\nmetrics not compared; checking the counters of "
              "the reps both sides ran")

    compared, differ = determinism_mismatches(runs, args.same_code)
    scope = "within and across the sets" if args.same_code else "within each set"
    print(f"\ndeterministic counters ({scope}): {compared} reps compared, "
          f"{len(differ)} differ")
    for workload, seed, index, *side in differ[:10]:
        errors.append(f"{workload} seed {seed} rep {index} {''.join(side)}: "
                      "counters differ")
    for error in errors:
        print(error)
    return 1 if breach or errors else 0


if __name__ == "__main__":
    sys.exit(main())
