#!/usr/bin/env python3
"""Run one workload under several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --workload monitor --seeds 1-10 --seconds 28

For every end-to-end metric it prints the median of the runs and the
interquartile range as a share of that median (``statistics.quantiles``
with ``n=4``), both for the reference-normalized value and for the raw
wall-clock value the run reports on standard error.  ``--out`` writes
the same as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def spread(values: list[float]) -> tuple[float, float]:
    """(median, IQR / median)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("inf")


def run_once(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    raw = {}
    for line in proc.stderr.splitlines():
        if line.startswith("perfbench-raw "):
            raw = json.loads(line[len("perfbench-raw "):])
    return result, raw


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--out", default=None, help="write the record as JSON here")
    args = ap.parse_args(argv)
    first, last = (int(x) for x in args.seeds.split("-"))
    runs = []
    for seed in range(first, last + 1):
        result, raw = run_once(args.workload, seed, args.seconds)
        norm = {k: v["value"] for k, v in result["metrics"].items()}
        runs.append({"seed": seed, "norm": norm, "raw": raw,
                     "attempted": result["attempted"], "failed": result["failed"],
                     "correct": result["correct"]})
        print(f"seed {seed}: calib {raw.get('host.calib_ms', 0):.2f} ms  "
              + "  ".join(f"{k}={v:.4g}" for k, v in sorted(norm.items())), flush=True)
    summary = {}
    for name in sorted(runs[0]["norm"]):
        n_med, n_spread = spread([r["norm"][name] for r in runs])
        r_med, r_spread = spread([r["raw"][name] for r in runs])
        summary[name] = {"median": n_med, "spread": n_spread,
                         "raw_median": r_med, "raw_spread": r_spread}
        print(f"{name:22s} norm {n_med:10.4g} spread {n_spread:6.3f}   "
              f"raw {r_med:10.4g} spread {r_spread:6.3f}")
    calib = [r["raw"].get("host.calib_ms", 0) for r in runs]
    print(f"host.calib_ms          min {min(calib):.2f} max {max(calib):.2f}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"workload": args.workload, "seconds": args.seconds,
                       "runs": runs, "summary": summary}, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
