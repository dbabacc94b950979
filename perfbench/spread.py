"""Run-to-run spread of the end-to-end metrics, as the bounds are checked.

    python3 perfbench/spread.py --workload compile --seeds 1-10

Runs ``perfbench/run.py`` once per seed, one run at a time, for the
``run_seconds`` of ``BENCHMARK.json`` unless ``--seconds`` says otherwise,
and prints for every end-to-end metric its median and the distance between
the first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of the median, next to the bound ``BENCHMARK.json`` gives it. Each
run's last stdout line is appended to ``--log`` so a set of runs can be
re-read.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--log", default=None)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    for seed in parse_seeds(args.seeds):
        start = time.perf_counter()
        completed = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        wall = time.perf_counter() - start
        if completed.returncode != 0:
            print(completed.stderr[-3000:], file=sys.stderr)
            return 1
        lines = completed.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        diagnostics = json.loads(lines[-2])["diagnostics"]
        if args.log:
            with open(args.log, "a", encoding="utf-8") as f:
                f.write(json.dumps({"workload": args.workload, "seed": seed,
                                    "wall_s": wall, "result": result}) + "\n")
        summary = " ".join(
            f"{k}={v['value']:.4g}" for k, v in sorted(result["metrics"].items())
        )
        print(f"seed {seed:3d} {wall:5.1f}s correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {summary}",
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        for name, value in diagnostics.items():
            if name.startswith("raw.") or name == "probe_median_ms":
                values.setdefault(name, []).append(value)
    print(f"{'metric':24s} {'median':>12s} {'IQR/median':>10s} {'bound':>6s}")
    for name, vals in sorted(values.items()):
        bound = bounds.get(name)
        print(f"{name:24s} {statistics.median(vals):12.5g} "
              f"{spread(vals):10.4f} {bound if bound is not None else '-':>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
