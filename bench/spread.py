"""Run every workload over several seeds and summarise each metric's spread.

    python3 bench/spread.py --seeds 1-10

For each workload of BENCHMARK.json and each end-to-end metric it prints
the median of the runs and the distance between the first and third
quartile as a share of the median, the figure the bounds in BENCHMARK.json
are compared against.  Runs go one
after another, never in parallel, so they do not disturb each other.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(v) for v in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            runs.append(result)
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {values}", flush=True)
        print(f"\n{workload}: {len(runs)} runs")
        print(f"  {'metric':42s} {'median':>14s} {'IQR/median':>11s} {'bound':>6s}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                share = (q3 - q1) / abs(med) if med else float("nan")
            else:
                share = float("nan")
            unit = runs[0]["metrics"][name]["unit"]
            print(f"  {name:42s} {med:14.6g} {share:11.4f} {bounds[name]:>6} {unit}")
        print(flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
