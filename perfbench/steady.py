#!/usr/bin/env python3
"""Run the benchmark over several seeds and print each metric's spread.

For every end-to-end metric it prints the median of the runs and the
distance between the first and third quartile (statistics.quantiles,
n=4) as a share of the median, next to the bound BENCHMARK.json gives it.
Run from the repository root:

    python3 perfbench/steady.py --workload read-hot --seeds 1-5 --seconds 10
"""
import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    incorrect = []
    for seed in parse_seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            incorrect.append(seed)
            print(f"seed {seed}: NOT CORRECT ({result['failed']} of {result['attempted']} ops failed)")
            print("\n".join(l for l in out.splitlines() if l.startswith("CHECK FAILED")))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)

    print(f"{'metric':36} {'median':>12} {'spread':>8} {'bound':>6}")
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread >= bound / 3:
            flag = "  over a third of the bound"
        print(f"{name:36} {med:12.5g} {spread:8.3f} {bound if bound is not None else '-':>6}{flag}")
    if incorrect:
        sys.exit(f"runs not correct: seeds {incorrect}")


if __name__ == "__main__":
    main()
