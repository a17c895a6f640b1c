#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see README.md in this directory).

One workload, printing the result as the last line of stdout:
    python3 bench/e2e/run.py --workload paper --seed 1 --seconds 10 --trace 0

Every workload in turn, writing a results file for compare.py:
    python3 bench/e2e/run.py --out results.json [--seed N] [--smoke]
                             [--chrome-trace DIR]

The build goes to build-bench/ at the repository root. Metric names, units
and workloads come from BENCHMARK.json; the exit status is non-zero when the
build fails or any output is wrong.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build-bench"
DRIVER = BUILD / "e2e_driver"
DRIVER_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures and builds the driver; build output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", str(BUILD), "--target", "e2e_driver",
              "-j", jobs]]
    # The compiler's temporary files stay inside the build tree too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            log("build failed: " + " ".join(step))
            return False
    return True


def run_driver(workload, args, trace, chrome_trace_dir):
    """Runs the driver for one workload; returns its JSON result or None."""
    cmd = [str(DRIVER), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.smoke:
        cmd.append("--smoke")
    if trace:
        cmd.append("--trace")
    if chrome_trace_dir:
        chrome_trace_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--chrome-trace", str(chrome_trace_dir / f"{workload}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: driver timed out after {DRIVER_TIMEOUT_S} s")
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"{workload}: driver exited {proc.returncode} without a result")
        return None
    for error in result["errors"]:
        log(f"{workload}: {error}")
    if proc.returncode != 0 and result["correct"]:
        result["correct"] = False
    return result


def with_units(result, section, specs, workload):
    """Attaches BENCHMARK.json units; a missing or extra metric is wrong."""
    values = result[section]
    expected = [spec["name"] for spec in specs]
    if sorted(values) != sorted(expected):
        log(f"{workload}: {section} metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(expected) - set(values))}, "
            f"extra {sorted(set(values) - set(expected))}")
        result["correct"] = False
    return {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
            for spec in specs if spec["name"] in values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1,
                        help="input seed (default 1; seed 2 is held out "
                             "for performance claims)")
    parser.add_argument("--seconds", type=float, default=0,
                        help="keep making timed passes until this much time "
                             "has passed (at least 3 passes; default 0)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="1: add the traced pass and report per-layer "
                             "metrics (default: 0 for one workload, 1 for all)")
    parser.add_argument("--smoke", action="store_true",
                        help="1 rep and 1 pass per workload, all checks on")
    parser.add_argument("--out", help="write every workload's result here")
    parser.add_argument("--chrome-trace", metavar="DIR",
                        help="write a Chrome trace-event file per workload")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in workloads:
        parser.error(f"unknown workload {args.workload}; one of {workloads}")
    trace = args.trace if args.trace is not None else int(args.workload is None)
    chrome_trace_dir = Path(args.chrome_trace) if args.chrome_trace else None

    if not build():
        return 2

    results = {}
    for workload in [args.workload] if args.workload else workloads:
        log(f"running {workload} (seed {args.seed})")
        result = run_driver(workload, args, trace, chrome_trace_dir)
        if result is None:
            return 1
        result["end_to_end"] = with_units(result, "end_to_end",
                                          spec["end_to_end"], workload)
        if trace:
            result["per_layer"] = with_units(result, "per_layer",
                                             spec["per_layer"], workload)
        for section in ("end_to_end", "per_layer"):
            for name, metric in result.get(section, {}).items():
                print(f"{workload} {name} {metric['value']!r} {metric['unit']}")
        print(f"{workload} commit_samples {result['commit_samples']} count")
        results[workload] = result

    correct = all(r["correct"] for r in results.values())
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seed": args.seed, "smoke": args.smoke, "workloads": results},
            indent=1) + "\n")
    if args.workload:
        result = results[args.workload]
        print(json.dumps({
            "correct": result["correct"],
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": result["per_layer" if trace else "end_to_end"],
        }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
