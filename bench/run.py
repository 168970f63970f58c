"""The avds benchmark: one workload per call, result as the last stdout line.

    python3 bench/run.py --workload figure1|diagnose \
        [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Run from anywhere inside a checkout of the repository; it reads `src/` and
`configs/` next to this directory and writes only under `.bench_build/`.
The workload runs in a fresh single process (bench/worker.py) with BLAS
threads set to 1.  --seed defaults to the config's own seed; --smoke
shrinks the operators for bench/smoke.py.

With --trace 0 the result holds the end-to-end metrics (see BENCHMARK.json):
set-up time, seconds per entry call, share of items that did not fail and
peak resident memory.  With --trace 1 it holds the per-layer metrics of a
traced run plus the tracing overhead.  Every run checks its outputs: each
unit's deterministic output has a sha256 digest that must repeat for the
same sources and unit seed, across runs traced or not, and diagnostics must
be finite with tail probabilities in [0, 1].  Failed items are counted, not
fatal, but a unit that raised makes the run incorrect: it has no output to
check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".bench_build" / "bench"
WORKLOADS = ("figure1", "diagnose")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Extra fresh processes timed for setup_s, besides the worker: half before
# and half after it, so that their median samples the machine over the run.
# One takes about 0.4 s.  The median still follows the machine's slow phases,
# which last longer than a run.
SETUP_PROBES = 12
TIMEOUT_S = 170.0


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def worker_env() -> dict:
    """Environment with one BLAS thread, which is at most the CPU count.

    On a 2-core machine one thread ran the densities and solves as fast as
    two, and it cannot oversubscribe CPUs shared with other processes.
    """
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def source_digest() -> str:
    """sha256 over the program, configs and benchmark sources."""
    h = hashlib.sha256()
    for pattern in ("src/**/*.py", "configs/*.json", "bench/*.py"):
        for path in sorted(ROOT.glob(pattern)):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def start_worker(args, env, setup_only: bool):
    """Start bench/worker.py; return (process, seconds until it printed `ready`)."""
    cmd = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload", args.workload,
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        stop(proc)
        return proc, None
    return proc, ready


def stop(proc) -> None:
    """Kill the process if it still runs, and wait until it has ended."""
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def probe_setup(args, env, count: int):
    """Set-up seconds of `count` fresh workload processes, or None on a failure."""
    setup = []
    for _ in range(count):
        proc, ready = start_worker(args, env, setup_only=True)
        try:
            proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            ready = None
        finally:
            stop(proc)
        if ready is None or proc.returncode != 0:
            return None
        setup.append(ready)
    return setup


def check_digests(workload: str, units: list) -> list:
    """Compare unit digests with earlier runs of the same sources; record new ones."""
    path = WORK_DIR / "digests.json"
    try:
        store = json.loads(path.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        store = {}
    known = store.setdefault(source_digest(), {})
    problems = []
    for unit in units:
        key = f"{workload}/{unit['seed']}"
        if known.setdefault(key, unit["digest"]) != unit["digest"]:
            problems.append(f"unit seed {unit['seed']}: digest differs from an earlier run")
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(store, sort_keys=True))
    os.replace(tmp, path)
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny operators, for bench/smoke.py"
    )
    args = parser.parse_args(argv)

    for needed in ("src/avds/__init__.py", "configs/diagnose_hadamard_haar.json"):
        if not (ROOT / needed).is_file():
            return fail(f"{ROOT / needed} is missing; run from a checkout of avds")
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    env = worker_env()
    record = {
        "workload": args.workload,
        "smoke": args.smoke,
        "env": dict({var: env[var] for var in THREAD_VARS}, nproc=cpu_count()),
    }

    probes = 0 if args.trace else SETUP_PROBES
    setup = probe_setup(args, env, probes // 2)
    if setup is None:
        return fail("the set-up probe failed")
    started = time.perf_counter()
    proc, ready = start_worker(args, env, setup_only=False)
    try:
        if ready is None:
            return fail("the workload process failed during set-up")
        setup.append(ready)
        out, _ = proc.communicate(timeout=max(1.0, TIMEOUT_S - (time.perf_counter() - started)))
    except subprocess.TimeoutExpired:
        return fail("the workload process timed out")
    finally:
        stop(proc)
    if proc.returncode != 0:
        return fail(f"the workload process exited with {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    after = probe_setup(args, env, probes - probes // 2)
    if after is None:
        return fail("the set-up probe failed")
    setup += after

    units = result["units"]
    problems = [f"unit seed {u['seed']}: {p}" for u in units for p in u["problems"]]
    # traced and plain runs of one seed share unit seeds, so this also
    # checks that tracing leaves the outputs unchanged
    tag = args.workload + ("-smoke" if args.smoke else "")
    problems += check_digests(tag, units)
    attempted = sum(u["items"] for u in units)
    failed = sum(u["failed"] for u in units)

    if args.trace:
        recon = [u for u in units if u["psnr_db"]]
        psnrs = [p for u in recon for p in u["psnr_db"]]
        items = sum(u["items"] for u in recon)
        metrics = dict(result["layers"])
        metrics["harness.recovered_frac"] = (
            sum(u["recovered"] for u in recon) / items if items else 0.0,
            "frac",
        )
        metrics["harness.psnr_median_db"] = (
            statistics.median(psnrs) if psnrs else 0.0,
            "dB",
        )
    else:
        metrics = {
            "wall_s": (statistics.fmean(u["wall_s"] for u in units), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "ok_frac": ((attempted - failed) / attempted, "frac"),
            "rss_peak_mb": (result["rss_peak_mb"], "MB"),
        }

    record["env"].update(result["versions"])
    record.update(
        seed=result["seed"],
        sources=source_digest(),
        setup_samples_s=setup,
        units=[
            {k: u[k] for k in ("index", "seed", "wall_s", "items", "failed", "unconverged", "digest")}
            for u in units
        ],
        run_digest=hashlib.sha256("".join(u["digest"] for u in units).encode()).hexdigest(),
        problems=problems,
    )
    if args.trace:
        record["trace_file"] = result["trace_file"]
    print("record " + json.dumps(record, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
