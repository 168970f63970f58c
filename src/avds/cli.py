"""Command-line surface: weights, densities, masks, reconstruction, experiments.

Operator specs are written measurement:sparsity:size[:levels], e.g.
dft2d:db4_2d:64:3 or dft1d:identity:1024; partitions are singletons,
lines-v, lines-h or squares:N.  Errors exit nonzero after printing a
single machine-parsable class line on stdout, with details on stderr.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from . import harness, tensorio
from .density import BlockPartition, Density, adapted_blocks, baseline_density
from .errors import AvdsError, ConfigError, DimensionMismatch, FormatError
from .harness import ExperimentConfig, diagnostics, run_experiment
from .masks import DISTINCT, IID, Mask, draw_mask, expand_blocks
from .recon import MeasurementOp, SolverParams, measure, solve_bp
from .support_model import WeightVector, estimate_weights, flip
from .transforms import Direction, Measurement, OperatorSpec, Sparsity, apply

_SPARSITY_ALIASES = {
    "haar2d_multilevel": "haar2d",
    "db4_2d_multilevel": "db4_2d",
    "tensor-haar": "tensor_haar",
    "tensor-db4": "tensor_db4",
}


def _operator_spec(measurement, sparsity, size, levels=None) -> OperatorSpec:
    """OperatorSpec from command-line or config values, sparsity aliases allowed."""
    try:
        return OperatorSpec(
            Measurement(measurement),
            Sparsity(_SPARSITY_ALIASES.get(sparsity, sparsity)),
            int(size),
            levels=levels,
        )
    except ValueError as exc:
        raise ConfigError(f"spec {measurement}:{sparsity}:{size}: {exc}") from exc


def parse_spec(text: str) -> OperatorSpec:
    parts = text.lower().split(":")
    if len(parts) not in (3, 4):
        raise ConfigError(f"spec {text!r} is not measurement:sparsity:size[:levels]")
    return _operator_spec(*parts)


def parse_partition(text: str | None, spec: OperatorSpec) -> BlockPartition:
    if text in (None, "singletons"):
        return BlockPartition.singletons(spec.dim)
    if text == "lines-v":
        return BlockPartition.vertical_lines(spec.side)
    if text == "lines-h":
        return BlockPartition.horizontal_lines(spec.side)
    if text.startswith("squares:"):
        return BlockPartition.squares(spec.side, int(text.split(":", 1)[1]))
    raise ConfigError(f"unknown partition {text!r}")


def _load_corpus(directory: str, spec: OperatorSpec) -> np.ndarray:
    """Coefficient vectors from a directory of .avds vectors or .pgm images."""
    paths = sorted(
        glob.glob(os.path.join(directory, "*.avds"))
        + glob.glob(os.path.join(directory, "*.pgm"))
    )
    if not paths:
        raise FormatError(f"no .avds or .pgm files under {directory}")
    analysis = replace(spec, measurement=Measurement.IDENTITY)
    rows = []
    for path in paths:
        if path.endswith(".avds"):
            vec = tensorio.read_tensor(path).reshape(-1)
        else:
            img = tensorio.read_pgm(path)
            if spec.is_2d and img.shape != (spec.side, spec.side):
                raise FormatError(f"{path}: image shape {img.shape} does not match spec")
            vec = apply(analysis, Direction.ADJOINT, img.T.ravel())
        if vec.size != spec.dim:
            raise FormatError(f"{path}: length {vec.size} does not match K={spec.dim}")
        rows.append(vec)
    return np.stack(rows)


def _write_mask(path: str, mask: Mask) -> None:
    data = np.stack([mask.indices.astype(float), mask.multiplicities.astype(float)])
    tensorio.write_tensor(path, data)


def _read_mask(path: str) -> Mask:
    """Mask from a 2 x n tensor: increasing indices >= 0, multiplicities >= 1."""
    data = tensorio.read_tensor(path)
    if data.ndim != 2 or data.shape[0] != 2:
        raise FormatError(f"{path}: mask tensors are 2 x n")
    values = np.real(data)
    if not np.all((np.imag(data) == 0) & (np.abs(values) < 2**53) & (values == np.round(values))):
        raise FormatError(f"{path}: mask entries must be real integers below 2^53")
    indices, mult = values.astype(np.int64)
    if indices.size and (indices[0] < 0 or np.any(np.diff(indices) <= 0)):
        raise FormatError(f"{path}: mask indices must be >= 0 and strictly increasing")
    if np.any(mult < 1):
        raise FormatError(f"{path}: mask multiplicities must be >= 1")
    return Mask(indices, mult)


# ------------------------------------------------------------------ weights

def _resolve_weights(entry: dict, spec: OperatorSpec, base_dir: str) -> tuple:
    allowed = {
        "uniform": {"source", "sparsity"},
        "tensor": {"source", "path"},
        "corpus": {"source", "path", "threshold", "mode"},
        "scale_profile": {"source", "base", "decay", "layout", "sparsity"},
    }
    source = entry.get("source")
    if source not in allowed:
        raise ConfigError(f"unknown weight source {source!r}")
    unknown = set(entry) - allowed[source]
    if unknown:
        raise ConfigError(f"unknown weight keys {sorted(unknown)}")
    if source == "uniform":
        s = float(entry["sparsity"])
        wv = WeightVector.from_omega(np.full(spec.dim, s / spec.dim))
    elif source == "tensor":
        omega = tensorio.read_tensor(os.path.join(base_dir, entry["path"]))
        wv = WeightVector.from_omega(omega.real.reshape(-1, order="F").ravel())
    elif source == "corpus":
        corpus = _load_corpus(os.path.join(base_dir, entry["path"]), spec)
        wv = estimate_weights(
            corpus, float(entry["threshold"]), mode=entry.get("mode", "absolute")
        )
    else:
        wv = harness.scale_profile_weights(
            spec.side,
            spec.levels or 1,
            base=float(entry["base"]),
            decay=float(entry["decay"]),
            layout=entry.get("layout", "mra2d"),
            s_target=float(entry["sparsity"]) if "sparsity" in entry else None,
        )
    return wv, dict(entry)


# Keys shared by experiment and diagnose configs, then each one's own keys.
_SHARED_KEYS = {"schema_version", "seed", "spec", "partition", "weights"}
_CONFIG_KEYS = _SHARED_KEYS | {"trials", "fraction", "budget", "flip", "densities", "solver"}
_DIAG_KEYS = _SHARED_KEYS | {"density", "m", "trials", "epsilon"}
_SOLVER_KEYS = {"continuation_steps", "final_mu_factor", "inner_tol", "max_inner"}
_PARTITION_NAMES = {
    "singletons": None,
    "vertical_lines": "lines-v",
    "horizontal_lines": "lines-h",
}


@contextmanager
def _config_errors(path: str):
    """Report a missing key or an ill-typed value (or bad JSON) as ConfigError."""
    try:
        yield
    except KeyError as exc:
        raise ConfigError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _read_config(path: str, keys: set) -> dict:
    """The config object at `path`, with only `keys` and schema version 1."""
    with open(path) as fh, _config_errors(path):
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: a config is a JSON object")
    unknown = set(raw) - keys
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
    if raw.get("schema_version") != 1:
        raise ConfigError(f"{path}: schema_version must be 1")
    return raw


def _section(raw: dict, key: str, path: str, keys=None, default=None) -> dict:
    """The object under `key`, checked for keys outside `keys`."""
    entry = raw.get(key, default)
    if not isinstance(entry, dict):
        raise ConfigError(f"{path}: {key} section must be an object")
    if keys is not None and set(entry) - keys:
        raise ConfigError(f"{path}: unknown {key} keys {sorted(set(entry) - keys)}")
    return entry


def _experiment_config(raw: dict, path: str) -> ExperimentConfig:
    """ExperimentConfig from a checked config object."""
    base_dir = os.path.dirname(os.path.abspath(path))
    spec_entry = _section(raw, "spec", path, {"measurement", "sparsity", "size", "levels"})
    part_entry = _section(
        raw, "partition", path, {"kind", "block_side"}, default={"kind": "singletons"}
    )
    solver_entry = _section(raw, "solver", path, _SOLVER_KEYS, default={})
    with _config_errors(path):
        spec = _operator_spec(
            spec_entry["measurement"],
            spec_entry["sparsity"],
            spec_entry["size"],
            spec_entry.get("levels"),
        )
        kind = part_entry.get("kind", "singletons")
        if kind == "squares":
            partition = BlockPartition.squares(spec.side, int(part_entry["block_side"]))
        elif kind in _PARTITION_NAMES:
            partition = parse_partition(_PARTITION_NAMES[kind], spec)
        else:
            raise ConfigError(f"{path}: unknown partition kind {kind!r}")
        weights, descriptor = _resolve_weights(
            _section(raw, "weights", path, default={}), spec, base_dir
        )
        return ExperimentConfig(
            spec=spec,
            weights=weights,
            density_kinds=list(raw.get("densities", ["adapted", "uniform"])),
            trials=int(raw.get("trials", 1)),
            master_seed=int(raw.get("seed", 0)),
            partition=partition,
            fraction=raw.get("fraction"),
            budget=raw.get("budget"),
            solver=SolverParams(**solver_entry),
            flip_coefficients=bool(raw.get("flip", False)),
            weight_descriptor=descriptor,
        )


def load_experiment_config(path: str) -> ExperimentConfig:
    return _experiment_config(_read_config(path, _CONFIG_KEYS), path)


# -------------------------------------------------------------- subcommands

def _cmd_estimate_weights(args) -> int:
    spec = parse_spec(args.transform)
    corpus = _load_corpus(args.corpus, spec)
    mode = "relative" if args.relative else "absolute"
    wv = estimate_weights(corpus, args.threshold, mode=mode)
    tensorio.write_tensor(args.out, wv.omega)
    print(f"weights written to {args.out}; sum={wv.sparsity:.6g}")
    return 0


def _cmd_density(args) -> int:
    spec = parse_spec(args.spec)
    partition = parse_partition(args.partition, spec)
    if args.kind == "adapted":
        if args.weights is None:
            raise ConfigError("adapted density needs --weights")
        omega = tensorio.read_tensor(args.weights).real.reshape(-1, order="F")
        dens = adapted_blocks(spec, partition, WeightVector.from_omega(omega))
    else:
        dens = baseline_density(args.kind, spec, partition)
    tensorio.write_tensor(args.out, dens.pi)
    if args.png_log:
        if partition.kind != "singletons" or not spec.is_2d:
            raise ConfigError("--png-log needs an isolated density on a 2D grid")
        tensorio.density_to_pgm(args.png_log, dens.pi, spec.side)
    print(f"density '{args.kind}' over {len(dens)} atoms; L={dens.normalizer:.6g}")
    return 0


def _cmd_mask(args) -> int:
    pi = tensorio.read_tensor(args.density).real.reshape(-1, order="F")
    dens = Density(pi, float(pi.sum()), kind="loaded")
    if args.m is not None:
        budget = args.m
    elif args.fraction is not None:
        budget = max(1, round(args.fraction * pi.size))
    else:
        raise ConfigError("need --m or --fraction")
    mode = DISTINCT if args.mode == "distinct" else IID
    mask = draw_mask(dens, budget, mode=mode, seed=args.seed)
    spec = parse_spec(args.spec) if args.spec else None
    if args.partition and args.partition != "singletons":
        if spec is None:
            raise ConfigError("block expansion needs --spec")
        mask = expand_blocks(mask, parse_partition(args.partition, spec))
    _write_mask(args.out, mask)
    if args.pgm:
        if spec is None or not spec.is_2d:
            raise ConfigError("--pgm needs a 2D --spec")
        tensorio.mask_to_pgm(args.pgm, mask.indices, spec.side)
    frac = mask.covered_fraction
    extra = f"; covered {frac:.4f}" if frac is not None else ""
    print(f"mask with {mask.size} indices written to {args.out}{extra}")
    return 0


def _cmd_reconstruct(args) -> int:
    spec = parse_spec(args.spec)
    sparsity_only = replace(spec, measurement=Measurement.IDENTITY)
    mask = _read_mask(args.mask)
    if mask.size and mask.indices[-1] >= spec.dim:
        raise DimensionMismatch(f"mask index {mask.indices[-1]} is out of range for K={spec.dim}")
    op = MeasurementOp(spec, mask)
    if args.image:
        img = tensorio.read_pgm(args.image)
        if spec.is_2d and img.shape != (spec.side, spec.side):
            raise FormatError(f"image shape {img.shape} does not match the spec")
        coeffs = apply(sparsity_only, Direction.ADJOINT, img.T.ravel())
        y = measure(coeffs, op)
    elif args.input:
        y = tensorio.read_tensor(args.input).reshape(-1)
    else:
        raise ConfigError("need --input Y.avds or --image IMG.pgm")
    params = SolverParams(max_inner=args.max_inner)
    result = solve_bp(y, op, params)
    tensorio.write_tensor(args.out, result.x)
    if args.image_out:
        rec = apply(sparsity_only, Direction.FORWARD, result.x)
        side = spec.side
        img = np.abs(rec.reshape(side, side)).T
        peak = img.max() if img.max() > 0 else 1.0
        tensorio.write_pgm(args.image_out, np.clip(img / peak, 0, 1))
    status = "converged" if result.converged else "iteration cap"
    print(
        f"reconstruction written to {args.out} ({status}; "
        f"iterations={result.inner_iterations}, residual={result.residual:.3e})"
    )
    return 0


def _cmd_experiment(args) -> int:
    cfg = load_experiment_config(args.config)
    report = run_experiment(cfg)
    text = report.to_json(include_timing=not args.no_timing)
    if args.out:
        tensorio.atomic_write(args.out, text.encode())
    print(text)
    return 0


def _cmd_diagnose(args) -> int:
    path = args.config
    raw = _read_config(path, _DIAG_KEYS)
    with _config_errors(path):
        budgets = [int(m) for m in (raw["m"] if isinstance(raw["m"], list) else [raw["m"]])]
        trials = int(raw.get("trials", 200))
        epsilon = float(raw.get("epsilon", 0.01))
    kind = raw.get("density", "adapted")
    # the shared sections in the experiment schema, whose budget is unused here
    shared = {key: raw[key] for key in _SHARED_KEYS if key in raw}
    cfg = _experiment_config(dict(shared, budget=1), path)
    dens = harness.build_density(kind, cfg, cfg.weights)
    out = []
    for m in budgets:
        diag = diagnostics(
            cfg.spec,
            cfg.partition,
            dens,
            cfg.weights,
            m=m,
            trials=trials,
            seed=cfg.master_seed,
            epsilon=epsilon,
        )
        out.append(
            {
                "m": diag.m,
                "mu": diag.mu,
                "lambda_mean": float(np.mean(diag.lambda_samples)),
                "lambda_max": float(np.max(diag.lambda_samples)),
                "gram_tail_prob": diag.gram_tail_prob,
                "threshold_inf1": diag.threshold_inf1,
                "threshold_gram": diag.threshold_gram,
                "m_bound_inf1": diag.m_bound_inf1,
                "m_bound_gram": diag.m_bound_gram,
            }
        )
    print(json.dumps(out, sort_keys=True, indent=2))
    return 0


def _cmd_flip(args) -> int:
    data = tensorio.read_tensor(args.infile)
    tensorio.write_tensor(args.out, flip(data.reshape(-1, order="F")))
    print(f"flipped vector written to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avds",
        description="Adapted variable-density subsampling for compressed sensing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate-weights", help="corpus coefficient frequencies")
    p.add_argument("--corpus", required=True)
    p.add_argument("--transform", required=True)
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--relative", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_estimate_weights)

    p = sub.add_parser("density", help="compute a sampling density")
    p.add_argument("--spec", required=True)
    p.add_argument("--weights")
    p.add_argument(
        "--kind",
        required=True,
        choices=["adapted", "uniform", "coherence", "polynomial"],
    )
    p.add_argument("--partition")
    p.add_argument("--out", required=True)
    p.add_argument("--png-log", dest="png_log")
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("mask", help="draw a measurement mask")
    p.add_argument("--density", required=True)
    p.add_argument("--fraction", type=float)
    p.add_argument("--m", type=int)
    p.add_argument("--mode", choices=["distinct", "iid"], default="distinct")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--spec")
    p.add_argument("--partition")
    p.add_argument("--pgm")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_mask)

    p = sub.add_parser("reconstruct", help="equality-constrained basis pursuit")
    p.add_argument("--spec", required=True)
    p.add_argument("--mask", required=True)
    p.add_argument("--input")
    p.add_argument("--image")
    p.add_argument("--image-out", dest="image_out")
    p.add_argument("--max-inner", dest="max_inner", type=int, default=3000)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("experiment", help="full pipeline from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.add_argument("--no-timing", action="store_true")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("diagnose", help="theorem diagnostics from a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("flip", help="reverse a coefficient vector")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_flip)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AvdsError as err:
        print(f"error: {type(err).__name__}")
        print(str(err), file=sys.stderr)
        return 1
    except FileNotFoundError as err:
        print("error: FileNotFound")
        print(str(err), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
