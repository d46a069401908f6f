#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 servebench/spread.py --workload pers-mix --runs 10

Runs `BENCHMARK.json`'s command once per seed (seeds first..first+runs-1)
from the repository root and prints, for every metric, the per-run
values, the median, the quartiles (`statistics.quantiles(n=4)`) and the
spread: the distance between the quartiles as a share of the median.
For end-to-end metrics the spread is compared with a third of the
metric's bound. `--record FILE` is passed through, so the runs append
their values and provenance to FILE. Exits non-zero if a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--record")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        if args.record:
            cmd += ["--record", args.record]
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if run.returncode != 0:
            sys.exit(f"seed {seed}: exit code {run.returncode}")
        result = json.loads(run.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']}",
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    steady = True
    for name, vals in values.items():
        nums = [v for v in vals if v is not None]
        med = statistics.median(nums)
        q1, _, q3 = statistics.quantiles(nums, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        line = f"{name:32} median {med:12.4f} q1 {q1:12.4f} q3 {q3:12.4f} spread {spread:7.4f}"
        if name in bounds:
            ok = spread < bounds[name] / 3
            steady &= ok or name == "setup_s"
            line += f" bound {bounds[name]} {'ok' if ok else 'WIDE'}"
        print(line)
        print("    " + " ".join(f"{v:.4f}" if v is not None else "null" for v in vals))
    print("steady" if steady else "not steady")


if __name__ == "__main__":
    main()
