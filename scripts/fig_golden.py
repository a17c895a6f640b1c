#!/usr/bin/env python3
"""Golden-output gate for the fig/table/ablation benches.

Runs each bench binary in <bench-dir> without flags and byte-compares its
stdout with bench/golden/<bench>.txt. The benches are seeded simulations
that print no wall-clock number, so their tables are a pure function of
the code: a change that moves a figure row shows up here as a unified
diff, and a change meant to keep behaviour must leave every file equal.

    fig_golden.py ./build/bench             # check
    fig_golden.py ./build/bench --update    # rewrite the goldens

A change that is meant to move a table reruns with --update and says why
in CHANGES.md. Each bench must also exit 0 (the benches gate their own
paper claims).

Exit status: 0 all equal, 1 a table differs or a bench failed, 2
structural (missing binary).
"""

import argparse
import difflib
import os
import subprocess
import sys

BENCHES = (
    "ablation_knobs",
    "ablation_loss",
    "fig4_replicas",
    "fig5_clusters",
    "fig6_contention",
    "fig7_throughput",
    "fig8_multi_ycsb",
    "fig_availability",
    "fig_crossgroup",
    "fig_recovery",
    "table_rounds",
)

GOLDEN_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench", "golden")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("bench_dir", help="directory holding the bench binaries")
    parser.add_argument("--update", action="store_true",
                        help="write each bench's output as its golden")
    args = parser.parse_args()

    failed = False
    for bench in BENCHES:
        binary = os.path.join(args.bench_dir, bench)
        if not os.access(binary, os.X_OK):
            print(f"error: no bench binary '{binary}'", file=sys.stderr)
            return 2
        run = subprocess.run([binary], stdout=subprocess.PIPE, check=False)
        golden_path = os.path.join(GOLDEN_DIR, bench + ".txt")
        if run.returncode != 0:
            print(f"FAIL {bench}: exit status {run.returncode}")
            failed = True
            continue
        if args.update:
            with open(golden_path, "wb") as f:
                f.write(run.stdout)
            print(f"updated {bench}")
            continue
        try:
            with open(golden_path, "rb") as f:
                golden = f.read()
        except OSError as e:
            print(f"FAIL {bench}: cannot read golden: {e}")
            failed = True
            continue
        if run.stdout == golden:
            print(f"ok   {bench}")
            continue
        failed = True
        print(f"FAIL {bench}: output differs from bench/golden/{bench}.txt")
        sys.stdout.writelines(difflib.unified_diff(
            golden.decode("utf-8", "replace").splitlines(keepends=True),
            run.stdout.decode("utf-8", "replace").splitlines(keepends=True),
            fromfile=f"golden/{bench}.txt", tofile=f"{bench} (this build)"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
