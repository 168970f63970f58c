"""Smoke test of the benchmark itself, at minimal size (about half a minute).

    python3 bench/smoke.py

For each workload, with tiny operators (`run.py --smoke`) and one unit:

- a plain run and a traced run print every metric named in BENCHMARK.json,
  with its unit, and report correct outputs and no failed item;
- the exact counts repeat between two traced runs of the same seed;
- in the span file, every span descends from a benchmark root span, and
  the self times under each root sum to the root's duration;
- in a directory holding only BENCHMARK.json and the benchmark, run.py
  exits non-zero without printing a result.

Exits 0 when every check passes and 1 otherwise, listing the failures.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
EXACT_COUNTS = ("recon.iterations", "transforms.apply.calls", "support_model.supports")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2].removeprefix("record "))


def check_result(errors, tag, proc, declared):
    if proc.returncode != 0:
        errors.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}")
        return None, None
    result, record = result_of(proc)
    if set(result) != RESULT_KEYS:
        errors.append(f"{tag}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("attempted", 0) < 1:
        errors.append(f"{tag}: correct={result.get('correct')} problems={record.get('problems')}")
    if result.get("failed") != 0:
        errors.append(f"{tag}: {result.get('failed')} of {result.get('attempted')} items failed")
    metrics = result.get("metrics", {})
    for entry in declared:
        got = metrics.get(entry["name"])
        if got is None:
            errors.append(f"{tag}: metric {entry['name']} missing")
        elif got["unit"] != entry["unit"] or not math.isfinite(got["value"]):
            errors.append(f"{tag}: metric {entry['name']} = {got}")
    extra = set(metrics) - {e["name"] for e in declared}
    if extra:
        errors.append(f"{tag}: undeclared metrics {sorted(extra)}")
    return result, record


def check_self_times(errors, tag, trace_file):
    spans = [json.loads(line) for line in Path(trace_file).read_text().splitlines()]
    self_s = [s["end"] - s["start"] for s in spans]
    root_of = list(range(len(spans)))
    for s in spans:
        if s["parent"] >= 0:
            self_s[s["parent"]] -= s["end"] - s["start"]
            root_of[s["id"]] = root_of[s["parent"]]  # parents precede children
    for s in spans:
        if s["parent"] < 0:
            if not s["name"].startswith("bench."):
                errors.append(f"{tag}: span {s['name']} has no parent")
            total = sum(v for v, r in zip(self_s, root_of) if r == s["id"])
            if not math.isclose(total, s["end"] - s["start"], rel_tol=1e-9, abs_tol=1e-9):
                errors.append(f"{tag}: self times of {s['name']} sum to {total}")


def check_bare_directory(errors):
    bare = ROOT / ".bench_build" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(["--workload", "figure1", "--seconds", "1"], cwd=bare)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
        errors.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    shutil.rmtree(bare)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors: list = []
    for workload in (w["name"] for w in spec["workloads"]):
        base = ["--workload", workload, "--seed", "3", "--seconds", "1", "--smoke"]
        check_result(errors, f"{workload} plain", run(base + ["--trace", "0"]), spec["end_to_end"])
        traced = []
        for attempt in range(2):
            tag = f"{workload} traced #{attempt + 1}"
            result, record = check_result(
                errors, tag, run(base + ["--trace", "1"]), spec["per_layer"]
            )
            if result is not None:
                traced.append(result["metrics"])
                check_self_times(errors, tag, record["trace_file"])
        if len(traced) == 2:
            for name in EXACT_COUNTS:
                if traced[0][name]["value"] != traced[1][name]["value"]:
                    errors.append(f"{workload}: {name} differs between traced runs")
    check_bare_directory(errors)
    for error in errors:
        print(f"FAIL {error}")
    print("smoke: ok" if not errors else f"smoke: {len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
