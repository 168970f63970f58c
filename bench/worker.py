"""Run one workload in a fresh process and print its units as JSON.

    python3 bench/worker.py --workload figure1 --seed 1 --seconds 50 --trace 0

`bench/run.py` starts this process; it is not meant to be run by hand.
The first line on stdout, `ready`, is printed once avds is imported and the
config is loaded, so the parent can time set-up.  The last line is a JSON
object with the units run, the peak resident memory and, with --trace 1,
the per-layer metrics.

With --trace 1 every unit runs with the module boundaries wrapped (see
spans.py); layer metrics come from their spans.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
from contextlib import nullcontext
from dataclasses import asdict
from pathlib import Path

import numpy
import scipy

ROOT = Path(__file__).resolve().parents[1]
WORK_DIR = ROOT / ".bench_build" / "bench"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import avds
    except ImportError as exc:
        print(f"cannot import avds from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(avds.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"avds was imported from {avds.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    import spans
    import workloads

    tracer = spans.Tracer() if args.trace else None
    with tracer.installed() if tracer else nullcontext():
        with tracer.span("bench.setup") if tracer else nullcontext():
            workload = workloads.load(args.workload, ROOT, WORK_DIR, args.smoke)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    seed = workload.default_seed if args.seed is None else args.seed
    count = max(1, round(workloads.UNITS[args.workload] * args.seconds / workloads.REFERENCE_S))
    units = []
    for index in range(count):
        s = workloads.unit_seed(seed, index)
        with tracer.installed() if tracer else nullcontext():
            with tracer.span("bench.unit") if tracer else nullcontext():
                units.append(workload.run_unit(index, s))

    rss_peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {
        "seed": seed,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
        },
        "units": [asdict(u) for u in units],
        "rss_peak_mb": rss_peak_mb,
    }
    if tracer:
        trace_file = WORK_DIR / f"trace-{args.workload}-{seed}.jsonl"
        tracer.write_jsonl(trace_file)
        layers = spans.layer_metrics(tracer.spans)
        # The same units timed with and without tracing differed by -18% to
        # +10% on diagnose: machine noise, far above what the spans cost.  So
        # the cost is measured on an empty function and scaled by the span count.
        overhead_s = spans.span_cost_s() * len(tracer.spans)
        layers["trace.overhead_frac"] = (overhead_s / sum(u.wall_s for u in units), "frac")
        out.update(layers=layers, trace_file=str(trace_file))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
