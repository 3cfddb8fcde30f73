#!/usr/bin/env python3
"""Steadiness mode: repeat one workload over seeds 1..runs and report, for
each end-to-end metric, the median, the quartiles, and whether the spread
(interquartile distance as a share of the median) fits the bound
BENCHMARK.json fixes for that metric.

Run from the repository root:

    python3 perfbench/steady.py --workload zipf_serve --runs 10
    python3 perfbench/steady.py --workload all --runs 5 --save perfbench/out/first.json
    python3 perfbench/steady.py --workload all --runs 5 --against perfbench/out/first.json
    python3 perfbench/steady.py --workload churn_open --runs 5

`all` is every workload BENCHMARK.json names; any other workload the
benchmark knows (such as the ungated `churn_open`) can be named by hand
and is checked against the same bounds. `--save` keeps every value;
`--against` also checks that each median is not worse than the saved
set's median by more than the metric's bound. A run that reports wrong
answers still contributes its metrics, and is listed. A run that exits 3
without a result (the open-loop generator fell behind) is invalid: it is
listed and contributes nothing. Exits non-zero when a run fails or is
invalid, or a spread or median falls outside its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

SPEC = "BENCHMARK.json"
# Exit code of a run whose open-loop generator ran too late to measure.
INVALID = 3


def run_once(spec, workload, seed, trace):
    """The run's result, or None when the run was invalid."""
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", str(trace),
    ]
    started = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    elapsed = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if not lines and proc.returncode == INVALID:
        return None, elapsed
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}, no result")
    result = json.loads(lines[-1])
    if (proc.returncode == 0) != result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode} disagrees with the result")
    return result, elapsed


def worse_by(metric, median, base):
    """How much worse `median` is than `base`, as a share of `base`."""
    change = (median - base) / base
    return change if metric["better"] == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload name, or 'all'")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--save", help="write every value to this JSON file")
    ap.add_argument("--against", help="compare medians with a file --save wrote")
    args = ap.parse_args()

    with open(SPEC) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    baseline = {}
    if args.against:
        with open(args.against) as f:
            baseline = json.load(f)

    saved = {}
    failures = []
    ok = True
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(1, args.runs + 1):
            result, elapsed = run_once(spec, workload, seed, 0)
            if result is None:
                status = "invalid: the generator fell behind"
                failures.append(f"{workload} seed {seed}: {status}")
            else:
                for m in spec["end_to_end"]:
                    values[m["name"]].append(result["metrics"][m["name"]]["value"])
                status = "ok" if result["correct"] else f"{result['failed']} of {result['attempted']} failed"
                if not result["correct"]:
                    failures.append(f"{workload} seed {seed}: {status}")
            print(f"{workload} seed {seed}: {elapsed:.1f} s, {status}", file=sys.stderr)
        saved[workload] = values
        valid = len(values[spec["end_to_end"][0]["name"]])
        print(f"\n{workload}: {args.runs} runs, seeds 1..{args.runs}, {valid} valid")
        if valid < 2:
            ok = False
            continue
        print(f"  {'metric':<24}{'q1':>14}{'median':>14}{'q3':>14}{'spread':>9}{'bound':>8}  fits")
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med if med else float("inf")
            fits = spread <= m["bound"]
            note = "yes" if fits else "NO"
            base = baseline.get(workload, {}).get(m["name"])
            if base:
                change = worse_by(m, med, statistics.median(base))
                within = change <= m["bound"]
                fits = fits and within
                note += f"; {change:+.1%} vs saved {'ok' if within else 'WORSE'}"
            ok = ok and fits
            print(f"  {m['name']:<24}{q1:>14.4f}{med:>14.4f}{q3:>14.4f}{spread:>9.1%}{m['bound']:>8.0%}  {note}")
    if args.save:
        os.makedirs(os.path.dirname(args.save) or ".", exist_ok=True)
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=1)
    for failure in failures:
        print(f"failed or invalid run: {failure}")
    sys.exit(0 if ok and not failures else 1)


if __name__ == "__main__":
    main()
