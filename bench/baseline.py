"""Run every workload over several seeds and summarise each metric.

    python3 bench/baseline.py [--seeds 1-10] [--trace 0|1] [--out FILE]

Runs `bench/run.py` once per (workload, seed), one at a time, with the
registered run length, and prints one JSON object: for every workload and
metric the ten values, their median, quartiles (statistics.quantiles, n=4)
and the spread (Q3 - Q1) / median; plus the `record` of the first run
(versions, nproc, thread settings).  With --out it also writes the object
to FILE.  A run that exits non-zero or reports incorrect outputs is listed
under "errors".
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {"seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}, "errors": []}
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict = {}
        for seed in args.seeds:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
            elapsed = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                out["errors"].append(f"{workload} seed {seed}: exit {proc.returncode}")
                continue
            result = json.loads(lines[-1])
            out.setdefault("record", json.loads(lines[-2].removeprefix("record ")))
            if not result["correct"] or result["failed"]:
                out["errors"].append(f"{workload} seed {seed}: {lines[-2][:300]}")
            values.setdefault("run_elapsed_s", []).append(elapsed)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: {elapsed:.1f} s", file=sys.stderr)
        out["workloads"][workload] = {
            name: summary(v) for name, v in values.items() if len(v) >= 2
        }
    text = json.dumps(out, indent=1, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 1 if out["errors"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
