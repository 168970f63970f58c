"""In-memory span recording around avds module boundaries.

A `Tracer` replaces, for the duration of `installed()`, the names that one
avds module imported from another (for example `avds.recon.apply`) with
wrappers that record a span: name, parent, start, end and a few counts
read from the call's arguments and result.  Nothing under `src/` is
edited; outside `installed()` the program runs unwrapped.

Self time of a span is its duration minus the durations of its direct
children.  Calls are synchronous and single-threaded, so children never
overlap and the self times under a root span sum to the root's duration.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
from contextlib import contextmanager

import numpy as np


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _apply_counts(args, kwargs, out):
    x = np.asarray(_arg(args, kwargs, 2, "x"))
    # bytes of the input and output arrays, computed from their shapes
    return {"vectors": math.prod(x.shape[:-1]), "bytes": x.nbytes + np.asarray(out).nbytes}


def _rows_counts(args, kwargs, out):
    return {"rows": len(np.atleast_1d(_arg(args, kwargs, 1, "indices")))}


def _solve_counts(args, kwargs, res):
    return {
        "iterations": res.inner_iterations,
        "unconverged": int(not res.converged),
        "residual": res.residual,
    }


def _model_counts(args, kwargs, dist):
    # (n_free + 1) x (r + 1) float64 log-ESP table, computed from the weights
    omega = dist.weights.omega
    n_free = int(np.count_nonzero((omega > 0.0) & (omega < 1.0)))
    r = dist.sparsity - int(np.count_nonzero(omega >= 1.0))
    return {"esp_bytes": (n_free + 1) * (r + 1) * 8}


def _supports_counts(args, kwargs, out):
    return {"supports": int(_arg(args, kwargs, 1, "n"))}


def _mask_counts(args, kwargs, mask):
    return {"budget": int(_arg(args, kwargs, 1, "budget")), "n_draws": int(mask.n_draws)}


# span name -> (the (module, attribute) bindings it wraps, count extractor).
# Each binding is the name as the calling module looks it up, so a span
# marks a call across a module boundary.
BOUNDARIES = {
    "cli.load_experiment_config": ([("avds.cli", "load_experiment_config")], None),
    "harness.run_experiment": ([("avds", "run_experiment")], None),
    "harness.diagnostics": ([("avds", "diagnostics")], None),
    "recon.solve_bp": ([("avds.harness", "solve_bp")], _solve_counts),
    "recon.measure": ([("avds.harness", "measure"), ("avds.recon", "measure")], None),
    "recon.adjoint_measure": ([("avds.recon", "adjoint_measure")], None),
    "transforms.apply": ([("avds.recon", "apply"), ("avds.harness", "apply")], _apply_counts),
    "transforms.rows_batch": (
        [("avds.density", "rows_batch"), ("avds.transforms", "rows_batch")],
        _rows_counts,
    ),
    "density.adapted_isolated": ([("avds.harness", "adapted_isolated")], None),
    "density.baseline": ([("avds.harness", "baseline_density")], None),
    "density.block_norm_terms": (
        [("avds.harness", "block_norm_terms"), ("avds.density", "block_norm_terms")],
        None,
    ),
    "support_model.build": ([("avds.harness", "SupportDistribution")], _model_counts),
    "support_model.sample_supports": (
        [("avds.harness", "sample_supports"), ("avds.support_model", "sample_supports")],
        _supports_counts,
    ),
    "masks.draw_mask": ([("avds.harness", "draw_mask")], _mask_counts),
}


class Tracer:
    """Spans kept in memory as [name, parent, start, end, counts] lists."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []

    @contextmanager
    def span(self, name: str):
        record = [name, self._stack[-1] if self._stack else -1, time.perf_counter(), None, None]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                out = fn(*args, **kwargs)
                if counts is not None:
                    record[4] = counts(args, kwargs, out)
                return out

        return traced

    @contextmanager
    def installed(self):
        """Wrap every boundary in BOUNDARIES; restore the originals on exit."""
        saved = []
        try:
            for name, (bindings, counts) in BOUNDARIES.items():
                for module_name, attr in bindings:
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self.wrap(name, original, counts))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, parent, start, end, counts) in enumerate(self.spans):
                row = {"id": i, "name": name, "parent": parent, "start": start, "end": end}
                if counts:
                    row["counts"] = counts
                fh.write(json.dumps(row) + "\n")


def span_cost_s(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds a wrapper adds to one call of an empty function (best of repeats)."""

    def empty():
        return None

    tracer = Tracer()
    wrapped = tracer.wrap("empty", empty)
    bare_s = wrapped_s = math.inf
    for _ in range(repeats):
        tracer.spans.clear()
        t0 = time.perf_counter()
        for _ in range(calls):
            empty()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        bare_s = min(bare_s, t1 - t0)
        wrapped_s = min(wrapped_s, t2 - t1)
    return max(wrapped_s - bare_s, 0.0) / calls


def self_times(spans) -> list:
    """Duration minus direct children's durations, per span."""
    out = [end - start for _, _, start, end, _ in spans]
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def aggregate(spans) -> dict:
    """Per span name: calls, inclusive and self seconds, summed counts, maxima."""
    agg: dict = {}
    for (name, _, start, end, counts), self_s in zip(spans, self_times(spans)):
        entry = agg.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "sum": {}, "max": {}})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += self_s
        for key, value in (counts or {}).items():
            entry["sum"][key] = entry["sum"].get(key, 0) + value
            entry["max"][key] = max(entry["max"].get(key, value), value)
    return agg


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans) -> dict:
    """The per-layer metrics (name -> (value, unit)) of a traced run."""
    agg = aggregate(spans)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "sum": {}, "max": {}}

    def get(name):
        return agg.get(name, empty)

    solve = get("recon.solve_bp")
    apply_ = get("transforms.apply")
    rows = get("transforms.rows_batch")
    model = get("support_model.build")
    supports = get("support_model.sample_supports")
    mask = get("masks.draw_mask")
    iterations = solve["sum"].get("iterations", 0)
    vectors = apply_["sum"].get("vectors", 0)
    return {
        "recon.solve_bp.calls": (solve["calls"], "count"),
        "recon.solve_bp.self_s": (solve["self_s"], "s"),
        "recon.iterations": (iterations, "count"),
        "recon.ms_per_iter": (1e3 * _ratio(solve["s"], iterations), "ms"),
        "recon.unconverged": (solve["sum"].get("unconverged", 0), "count"),
        "recon.residual_max": (solve["max"].get("residual", 0.0), "l2"),
        "recon.measure.calls": (get("recon.measure")["calls"], "count"),
        "recon.adjoint_measure.calls": (get("recon.adjoint_measure")["calls"], "count"),
        "transforms.apply.calls": (apply_["calls"], "count"),
        "transforms.apply.vectors": (vectors, "count"),
        "transforms.apply.self_s": (apply_["self_s"], "s"),
        "transforms.apply.us_per_vector": (1e6 * _ratio(apply_["self_s"], vectors), "us"),
        "transforms.apply.bytes_computed": (apply_["sum"].get("bytes", 0), "B"),
        "transforms.rows_batch.rows": (rows["sum"].get("rows", 0), "count"),
        "transforms.rows_batch.self_s": (rows["self_s"], "s"),
        "density.adapted_isolated.s": (get("density.adapted_isolated")["s"], "s"),
        "density.baseline.s": (get("density.baseline")["s"], "s"),
        "density.block_norm_terms.calls": (get("density.block_norm_terms")["calls"], "count"),
        "density.block_norm_terms.s": (get("density.block_norm_terms")["s"], "s"),
        "support_model.build.s": (model["s"], "s"),
        "support_model.esp_table_bytes": (model["max"].get("esp_bytes", 0), "B"),
        "support_model.sample_supports.calls": (supports["calls"], "count"),
        "support_model.supports": (supports["sum"].get("supports", 0), "count"),
        "support_model.sample_supports.self_s": (supports["self_s"], "s"),
        "masks.draw_mask.calls": (mask["calls"], "count"),
        "masks.draw_mask.self_s": (mask["self_s"], "s"),
        "masks.draw_mask.useful_ratio": (
            _ratio(mask["sum"].get("budget", 0), mask["sum"].get("n_draws", 0)),
            "ratio",
        ),
        "harness.run_experiment.self_s": (get("harness.run_experiment")["self_s"], "s"),
        "harness.diagnostics.self_s": (get("harness.diagnostics")["self_s"], "s"),
        "cli.load_experiment_config.s": (get("cli.load_experiment_config")["s"], "s"),
    }
