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
from dataclasses import fields, replace

import numpy as np

from . import harness, tensorio
from .density import BlockPartition, Density, adapted_blocks, baseline_density
from .errors import AvdsError, ConfigError, DimensionMismatch, FormatError, _check_real
from .harness import ExperimentConfig, _fraction_budget, diagnose_rows, run_experiment
from .masks import DISTINCT, IID, Mask, draw_mask, expand_blocks
from .recon import MeasurementOp, SolverParams, measure, solve_bp
from .support_model import WeightVector, estimate_weights, flip
from .transforms import Direction, Measurement, OperatorSpec, Sparsity, apply

def _operator_spec(measurement, sparsity, size, levels=None) -> OperatorSpec:
    """OperatorSpec from command-line or config values."""
    try:
        return OperatorSpec(
            Measurement(measurement),
            Sparsity(sparsity),
            int(size),
            levels=None if levels is None else int(levels),
        )
    except ValueError as exc:
        raise ConfigError(f"spec {measurement}:{sparsity}:{size}: {exc}") from exc


def parse_spec(text: str) -> OperatorSpec:
    parts = text.lower().split(":")
    if len(parts) not in (3, 4):
        raise ConfigError(f"spec {text!r} is not measurement:sparsity:size[:levels]")
    return _operator_spec(*parts)


# Each named partition by its report label: the integer options it takes,
# and its builder from the spec and those options' values.
_PARTITIONS = {
    "singletons": ((), lambda spec: BlockPartition.singletons(spec.dim)),
    "vertical_lines": ((), lambda spec: BlockPartition.vertical_lines(spec.side)),
    "horizontal_lines": ((), lambda spec: BlockPartition.horizontal_lines(spec.side)),
    "squares": (("block_side",), lambda spec, b: BlockPartition.squares(spec.side, b)),
}
_CLI_PARTITIONS = {
    None: "singletons",
    "singletons": "singletons",
    "lines-v": "vertical_lines",
    "lines-h": "horizontal_lines",
}


def _named_partition(kind, spec: OperatorSpec, options: dict) -> BlockPartition:
    """The partition labelled `kind`, from exactly the options it takes."""
    if kind not in _PARTITIONS:
        raise ConfigError(f"unknown partition {kind!r}")
    keys, build = _PARTITIONS[kind]
    if set(options) != set(keys):
        raise ConfigError(f"partition {kind} takes the options {list(keys)}: {sorted(options)}")
    return build(spec, *(_integer(options[key], key) for key in keys))


def parse_partition(text: str | None, spec: OperatorSpec) -> BlockPartition:
    """The partition named on a command line: singletons (default), lines-v, lines-h, squares:N."""
    if text is not None and text.startswith("squares:"):
        try:
            block_side = int(text.removeprefix("squares:"))
        except ValueError as exc:
            raise ConfigError(f"partition {text!r}: the square side is not an integer") from exc
        return _named_partition("squares", spec, {"block_side": block_side})
    if text not in _CLI_PARTITIONS:
        raise ConfigError(f"unknown partition {text!r}")
    return _named_partition(_CLI_PARTITIONS[text], spec, {})


def _read_vector(path: str, real: bool = False) -> np.ndarray:
    """A .avds tensor as a column-major vector; a real input has no imaginary part."""
    vec = tensorio.read_tensor(path).reshape(-1, order="F")
    if real:
        if np.any(np.imag(vec) != 0):
            raise FormatError(f"{path}: entries must be real")
        vec = np.real(vec)
    return vec


def _image_coefficients(path: str, spec: OperatorSpec) -> np.ndarray:
    """Sparsity coefficients of the PGM image at `path`, on the grid of a 2D spec."""
    img = tensorio.read_pgm(path)
    if spec.is_2d and img.shape != (spec.side, spec.side):
        raise FormatError(f"{path}: image shape {img.shape} does not match the spec")
    return apply(replace(spec, measurement=Measurement.IDENTITY), Direction.ADJOINT, img.T.ravel())


def _load_corpus(directory: str, spec: OperatorSpec) -> np.ndarray:
    """Coefficient vectors from a directory of .avds vectors or .pgm images."""
    paths = sorted(
        glob.glob(os.path.join(directory, "*.avds"))
        + glob.glob(os.path.join(directory, "*.pgm"))
    )
    if not paths:
        raise FormatError(f"no .avds or .pgm files under {directory}")
    rows = []
    for path in paths:
        vec = _read_vector(path) if path.endswith(".avds") else _image_coefficients(path, spec)
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
        s = _check_real(entry["sparsity"], "weights sparsity", ConfigError)
        wv = WeightVector.from_omega(np.full(spec.dim, s / spec.dim))
    elif source == "tensor":
        wv = WeightVector.from_omega(_read_vector(os.path.join(base_dir, entry["path"]), real=True))
    elif source == "corpus":
        corpus = _load_corpus(os.path.join(base_dir, entry["path"]), spec)
        wv = estimate_weights(
            corpus,
            _check_real(entry["threshold"], "threshold", ConfigError),
            mode=entry.get("mode", "absolute"),
        )
    else:
        wv = harness.scale_profile_weights(
            spec.side,
            spec.levels or 1,
            base=_check_real(entry["base"], "base", ConfigError),
            decay=_check_real(entry["decay"], "decay", ConfigError),
            layout=entry.get("layout", "mra2d"),
            s_target=_optional(entry.get("sparsity"), _check_real, "weights sparsity", ConfigError),
        )
    return wv, dict(entry)


# Keys shared by experiment and diagnose configs, then each one's own keys.
_SHARED_KEYS = {"schema_version", "seed", "spec", "partition", "weights"}
_CONFIG_KEYS = _SHARED_KEYS | {"trials", "fraction", "budget", "flip", "densities", "solver"}
_DIAG_KEYS = _SHARED_KEYS | {"density", "m", "trials", "epsilon"}
_SOLVER_KEYS = {f.name for f in fields(SolverParams)}
_SOLVER_INT_KEYS = {"continuation_steps", "max_inner"}


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


def _integer(value, key: str) -> int:
    """An integer config value: an int or an integral float, never a bool."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ConfigError(f"{key} must be an integer, got {value!r}")


def _optional(value, check, *args):
    return None if value is None else check(value, *args)


def _experiment_config(raw: dict, path: str) -> ExperimentConfig:
    """ExperimentConfig from a checked config object."""
    base_dir = os.path.dirname(os.path.abspath(path))
    spec_entry = _section(raw, "spec", path, {"measurement", "sparsity", "size", "levels"})
    part_entry = dict(_section(raw, "partition", path, default={}))
    solver_entry = _section(raw, "solver", path, _SOLVER_KEYS, default={})
    with _config_errors(path):
        spec = _operator_spec(
            spec_entry["measurement"],
            spec_entry["sparsity"],
            _integer(spec_entry["size"], "spec size"),
            _optional(spec_entry.get("levels"), _integer, "spec levels"),
        )
        partition = _named_partition(part_entry.pop("kind", "singletons"), spec, part_entry)
        weights, descriptor = _resolve_weights(
            _section(raw, "weights", path, default={}), spec, base_dir
        )
        return ExperimentConfig(
            spec=spec,
            weights=weights,
            density_kinds=raw.get("densities", ["adapted", "uniform"]),
            trials=_integer(raw.get("trials", 1), "trials"),
            master_seed=_integer(raw.get("seed", 0), "seed"),
            partition=partition,
            fraction=raw.get("fraction"),
            budget=_optional(raw.get("budget"), _integer, "budget"),
            solver=SolverParams(
                **{
                    key: _integer(value, key)
                    if key in _SOLVER_INT_KEYS
                    else _check_real(value, key, ConfigError)
                    for key, value in solver_entry.items()
                }
            ),
            flip_coefficients=raw.get("flip", False),
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
    if args.png_log and (partition.m != partition.dim or not spec.is_2d):
        raise ConfigError("--png-log needs an isolated density on a 2D grid")
    if args.kind == "adapted":
        if args.weights is None:
            raise ConfigError("adapted density needs --weights")
        omega = _read_vector(args.weights, real=True)
        dens = adapted_blocks(spec, partition, WeightVector.from_omega(omega))
    else:
        dens = baseline_density(args.kind, spec, partition)
    tensorio.write_tensor(args.out, dens.pi)
    if args.png_log:
        tensorio.density_to_pgm(args.png_log, dens.pi, spec.side)
    print(f"density '{args.kind}' over {len(dens)} atoms; L={dens.normalizer:.6g}")
    return 0


def _cmd_mask(args) -> int:
    pi = _read_vector(args.density, real=True)
    dens = Density(pi, float(pi.sum()))
    # every input is checked before the draw: an error leaves no output file
    spec = parse_spec(args.spec) if args.spec else None
    expand = args.partition not in (None, "singletons")
    if spec is None and expand:
        raise ConfigError("block expansion needs --spec")
    if args.pgm and (spec is None or not spec.is_2d):
        raise ConfigError("--pgm needs a 2D --spec")
    partition = None if spec is None else parse_partition(args.partition, spec)
    if partition is not None and pi.size != partition.m:
        raise DimensionMismatch(f"density has {pi.size} entries for {partition.m} atoms")
    if args.m is not None:
        budget = args.m
    elif args.fraction is not None:
        budget = _fraction_budget(args.fraction, pi.size)
    else:
        raise ConfigError("need --m or --fraction")
    mode = DISTINCT if args.mode == "distinct" else IID
    mask = draw_mask(dens, budget, mode=mode, seed=args.seed)
    extra = ""
    if expand:
        mask = expand_blocks(mask, partition)
        extra = f"; covered {mask.size / spec.dim:.4f}"
    _write_mask(args.out, mask)
    if args.pgm:
        tensorio.mask_to_pgm(args.pgm, mask.indices, spec.side)
    print(f"mask with {mask.size} indices written to {args.out}{extra}")
    return 0


def _cmd_reconstruct(args) -> int:
    spec = parse_spec(args.spec)
    if args.image_out and not spec.is_2d:
        raise ConfigError("--image-out needs a 2D --spec")
    mask = _read_mask(args.mask)
    op = MeasurementOp(spec, mask)
    if args.image:
        y = measure(_image_coefficients(args.image, spec), op)
    elif args.input:
        y = _read_vector(args.input)
    else:
        raise ConfigError("need --input Y.avds or --image IMG.pgm")
    params = SolverParams(max_inner=args.max_inner)
    result = solve_bp(y, op, params)
    tensorio.write_tensor(args.out, result.x)
    if args.image_out:
        rec = apply(replace(spec, measurement=Measurement.IDENTITY), Direction.FORWARD, result.x)
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


def _diagnose_config(path: str):
    """The run a diagnose config file asks for: (ExperimentConfig, budgets, epsilon)."""
    raw = _read_config(path, _DIAG_KEYS)
    with _config_errors(path):
        budgets = raw["m"] if isinstance(raw["m"], list) else [raw["m"]]
        if not budgets:
            raise ConfigError(f"{path}: m must hold at least one budget")
        budgets = [_integer(m, "m") for m in budgets]
        epsilon = raw.get("epsilon", harness._DIAGNOSE_EPSILON)
        epsilon = _check_real(epsilon, "epsilon", ConfigError)
    # the experiment schema: the density as the one kind, its budget unused here
    shared = {key: raw[key] for key in _SHARED_KEYS if key in raw}
    kind = raw.get("density", "adapted")
    trials = raw.get("trials", harness._DIAGNOSE_TRIALS)
    cfg = _experiment_config(dict(shared, budget=1, densities=[kind], trials=trials), path)
    return cfg, budgets, epsilon


def _cmd_diagnose(args) -> int:
    print(json.dumps(diagnose_rows(*_diagnose_config(args.config)), sort_keys=True, indent=2))
    return 0


def _cmd_flip(args) -> int:
    tensorio.write_tensor(args.out, flip(_read_vector(args.infile)))
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
    p.add_argument("--kind", required=True, choices=harness.DENSITY_KINDS)
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
    p.add_argument("--max-inner", dest="max_inner", type=int, default=SolverParams.max_inner)
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
    except (AvdsError, OSError) as err:
        if isinstance(err, AvdsError):
            name = type(err).__name__
        else:
            name = "FileNotFound" if isinstance(err, FileNotFoundError) else "OSError"
        print(f"error: {name}")
        print(str(err), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
