"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/baseline.py --seeds N [--trace 0|1] > FILE

Run from the root of a cartaninv checkout that holds BENCHMARK.json.  For
each seed 1..N it runs every workload, in an order drawn from the seed,
one run at a time, for BENCHMARK.json's ``run_seconds``.  It keeps each
run's ``env:`` line and result line and, per workload and metric, the
median, the quartiles as ``statistics.quantiles(values, n=4)`` gives
them, and the spread (q3 - q1) / median.  A table of spreads against a
third of each end-to-end bound goes to stderr; the JSON goes to stdout.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys

from run import WORKLOADS


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    env = next(json.loads(ln[5:]) for ln in lines if ln.startswith("env: "))
    return {"seed": seed, "env": env, "result": json.loads(lines[-1])}


def summarise(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": runs[0]["result"]["metrics"][name]["unit"],
                     "median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else None}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seeds < 2:
        parser.error("--seeds must be at least 2 to give quartiles")
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = sorted(WORKLOADS)
    runs: dict[str, list] = {w: [] for w in names}
    for seed in range(1, args.seeds + 1):
        for workload in random.Random(seed).sample(names, len(names)):
            runs[workload].append(run_once(workload, seed, bench["run_seconds"], args.trace))
            print(f"seed {seed} {workload} done", file=sys.stderr)
    report = {"run_seconds": bench["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload, rs in runs.items():
        summary = summarise(rs)
        report["workloads"][workload] = {
            "correct": all(r["result"]["correct"] for r in rs),
            "summary": summary, "runs": rs}
        for name, s in summary.items():
            if name in bounds:
                spread = s["spread"]
                flag = "ok" if spread is not None and spread < bounds[name] / 3 else "WIDE"
                print(f"{workload:<13} {name:<12} median {s['median']:.6g} {s['unit']:<3} "
                      f"spread {spread:.4f} (bound/3 {bounds[name] / 3:.4f}) {flag}",
                      file=sys.stderr)
    print(json.dumps(report, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
