"""End-to-end experiments, theorem diagnostics and phase-transition sweeps.

Experiments and phase transitions share one trial pipeline: trial t uses
`SeedSequence(entropy).spawn(trials)[t]`, whose children seed (in order)
the signal draw and one mask draw per density run.  An experiment runs
every density kind on each signal (paired) from entropy = master seed; a
transition point runs one kind from (master seed, kind index, m), so its
kinds are unpaired.  The theorem diagnostics read two streams per call:
`SeedSequence(seed).spawn(2)` seeds one generator for the supports and one
for the i.i.d. masks, and trial t reads the t-th row of each.  Reports are
therefore fully reproducible from the config plus the master seed.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .density import (
    BlockPartition,
    Density,
    adapted_blocks,
    adapted_isolated,
    baseline_density,
    block_norm_terms,
)
from .errors import ConfigError, DimensionMismatch, InfeasibleBudget
from .masks import DISTINCT, _categorical_table, _iid_draw, draw_mask, expand_blocks
from .recon import MeasurementOp, SolverParams, measure, solve_bp
from .support_model import (
    SupportDistribution,
    WeightVector,
    _check_seed,
    draw_signals,
    flip,
    normalize_weights,
    sample_supports,
)
from .transforms import OperatorSpec, _bands_1d, column_pairs
from .transforms import apply  # noqa: F401 (bench/spans.py wraps avds.harness.apply)

REPORT_SCHEMA_VERSION = 2

# PSNR values at or beyond the numerical noise floor are reported as the
# +inf sentinel; aggregation clips at this cap so means stay ordered.
PSNR_CAP_DB = 240.0
_NOISE_FLOOR_REL = 1e-12

# A Gram deviation within this of 1/2 is a tail hit: exact ties (an eigenvalue
# of exactly 1/2 or 3/2, 26 of 800 trials on the diagnose config) are common,
# and rounding, hence evaluation order, would otherwise decide them.
TAIL_TIE_TOL = 1e-9
# Seeds and Lambda samples grow with the trial count; at this bound the
# Lambda samples of a diagnostics call fit in 8 MB.
MAX_TRIALS = 1 << 20
# Entries per stack of trials in `diagnostics` (supports, column pairs); a
# chunk of a stack (Lambda numerators, draws, tail Grams) holds half as many.
_STACK_ENTRIES = 1 << 15


def psnr(ref: np.ndarray, rec: np.ndarray, peak: float | None = None) -> float:
    """10 log10(peak^2 / MSE); exact (or noise-floor) matches give +inf."""
    ref = np.asarray(ref)
    rec = np.asarray(rec)
    if ref.shape != rec.shape:
        raise DimensionMismatch("reference and reconstruction shapes differ")
    if peak is None:
        peak = float(np.max(np.abs(ref)))
    if peak <= 0:
        raise DimensionMismatch("peak must be positive")
    mse = float(np.mean(np.abs(ref - rec) ** 2))
    if mse <= (peak * _NOISE_FLOOR_REL) ** 2:
        return math.inf
    return 10.0 * math.log10(peak * peak / mse)


def _clip_psnr(values) -> np.ndarray:
    return np.minimum(np.asarray(values, dtype=float), PSNR_CAP_DB)


def scale_profile_weights(
    side: int,
    levels: int,
    base: float,
    decay: float,
    layout: str = "mra2d",
    s_target: float | None = None,
) -> WeightVector:
    """Synthetic 2D weight profile decaying from coarse to fine scales.

    Fineness f of a coefficient counts detail levels away from the
    approximation band (0 = approximation, `levels` = finest details);
    mra2d uses max(f_row, f_col), tensor2d uses f_row + f_col.  Weight is
    base * decay^f, optionally rescaled to sum to s_target.
    """
    if levels < 0 or side >> levels == 0:
        raise ConfigError(f"a weight profile of side {side} cannot have {levels} levels")
    f1 = _bands_1d(side, levels)  # 0 on the approximation, 1 on the coarsest details
    if layout == "mra2d":
        f2 = np.maximum(f1[:, None], f1[None, :])
    elif layout == "tensor2d":
        f2 = f1[:, None] + f1[None, :]
    else:
        raise ConfigError(f"unknown weight profile layout {layout!r}")
    w = np.clip(base * decay ** f2.astype(float), 0.0, 1.0)
    omega = w.T.ravel()  # column-major vec
    if s_target is not None:
        return normalize_weights(omega, s_target)
    return WeightVector.from_omega(omega)


@dataclass
class ExperimentConfig:
    spec: OperatorSpec
    weights: WeightVector
    density_kinds: list
    trials: int
    master_seed: int
    partition: BlockPartition | None = None
    fraction: float | None = None
    budget: int | None = None
    solver: SolverParams = field(default_factory=SolverParams)
    flip_coefficients: bool = False
    weight_descriptor: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 1 <= self.trials <= MAX_TRIALS:
            raise ConfigError(f"trials must lie in [1, {MAX_TRIALS}], got {self.trials}")
        if self.master_seed < 0:
            raise ConfigError("the master seed must be >= 0")
        if len(set(self.density_kinds)) < len(self.density_kinds):
            # one kind's trials would be pooled under one report key
            raise ConfigError(f"density kinds repeat: {self.density_kinds}")
        if self.budget is None:
            if self.fraction is None or not 0 < self.fraction <= 1:
                raise ConfigError("need a budget or a fraction in (0, 1]")
        if self.partition is None:
            self.partition = BlockPartition.singletons(self.spec.dim)

    @property
    def resolved_budget(self) -> int:
        if self.budget is not None:
            return int(self.budget)
        return max(1, round(self.fraction * self.partition.m))

    def describe(self) -> dict:
        spec = self.spec
        return {
            "spec": {
                "measurement": spec.measurement.value,
                "sparsity": spec.sparsity.value,
                "size": spec.size,
                "levels": spec.levels,
            },
            "partition": self.partition.kind,
            "density_kinds": list(self.density_kinds),
            "trials": self.trials,
            "fraction": self.fraction,
            "budget": self.resolved_budget,
            "flip": self.flip_coefficients,
            "master_seed": self.master_seed,
            "solver": asdict(self.solver),
            "weights": dict(self.weight_descriptor),
            "seed_scheme": (
                "SeedSequence(master).spawn(trials); per trial: [signal, mask per kind]; "
                "distinct masks by exponential keys"
            ),
        }


@dataclass
class ExperimentReport:
    schema_version: int
    config: dict
    psnr_db: dict
    psnr_mean: dict
    psnr_sd: dict
    covered_fraction: dict
    density_info: dict
    unconverged_solves: int
    wall_clock_s: float

    def to_json(self, include_timing: bool = True) -> str:
        payload = asdict(self)
        if not include_timing:
            del payload["wall_clock_s"]
        return json.dumps(payload, sort_keys=True, indent=2)


def build_density(kind: str, cfg: ExperimentConfig, weights: WeightVector) -> Density:
    part = cfg.partition
    if kind == "adapted":
        if part.m == part.dim:
            return adapted_isolated(cfg.spec, weights)
        return adapted_blocks(cfg.spec, part, weights)
    return baseline_density(kind, cfg.spec, part)


def signal_distribution(weights: WeightVector) -> SupportDistribution:
    s_int = max(1, int(round(weights.sparsity)))
    return SupportDistribution(normalize_weights(weights.omega, s_int))


def _setup(cfg: ExperimentConfig) -> tuple[dict, SupportDistribution]:
    """Densities per kind and the signal distribution, from the (flipped) weights."""
    weights = cfg.weights
    if cfg.flip_coefficients:
        weights = WeightVector.from_omega(flip(weights.omega))
    densities = {kind: build_density(kind, cfg, weights) for kind in cfg.density_kinds}
    return densities, signal_distribution(weights)


def _trials(cfg: ExperimentConfig, dist, densities: dict, budget: int, entropy):
    """(kind, x, mask, result) per trial and density, seeded as the module docstring says."""
    for seed in np.random.SeedSequence(entropy).spawn(cfg.trials):
        children = seed.spawn(1 + len(densities))
        x = draw_signals(dist, 1, seed=children[0])[0]
        for (kind, density), child in zip(densities.items(), children[1:]):
            mask = draw_mask(density, budget, mode=DISTINCT, seed=child)
            mask = expand_blocks(mask, cfg.partition)
            op = MeasurementOp(cfg.spec, mask)
            yield kind, x, mask, solve_bp(measure(x, op), op, cfg.solver)


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Draw signal / density / mask / measure / solve / score per trial.

    The same per-trial signal is scored under every density kind so the
    comparison is paired.  Fully deterministic given the master seed.
    """
    t0 = time.perf_counter()
    densities, dist = _setup(cfg)
    psnr_db: dict = {kind: [] for kind in cfg.density_kinds}
    covered: dict = {kind: [] for kind in cfg.density_kinds}
    unconverged = 0
    trials = _trials(cfg, dist, densities, cfg.resolved_budget, cfg.master_seed)
    for kind, x, mask, result in trials:
        covered[kind].append(mask.size / cfg.spec.dim)
        unconverged += not result.converged
        psnr_db[kind].append(psnr(x, result.x))

    report = ExperimentReport(
        schema_version=REPORT_SCHEMA_VERSION,
        config=cfg.describe(),
        psnr_db=psnr_db,
        psnr_mean={k: float(np.mean(_clip_psnr(v))) for k, v in psnr_db.items()},
        psnr_sd={k: float(np.std(_clip_psnr(v))) for k, v in psnr_db.items()},
        covered_fraction={k: float(np.mean(v)) for k, v in covered.items()},
        density_info={
            k: {
                "normalizer": float(d.normalizer),
                "min": float(d.pi.min()),
                "max": float(d.pi.max()),
            }
            for k, d in densities.items()
        },
        unconverged_solves=unconverged,
        wall_clock_s=time.perf_counter() - t0,
    )
    return report


# ----------------------------------------------------------------- diagnostics

@dataclass
class Diagnostics:
    mu: float
    lambda_samples: np.ndarray
    gram_tail_prob: float
    m: int
    threshold_inf1: float
    threshold_gram: float
    m_bound_inf1: float
    m_bound_gram: float


def diagnostics(
    spec: OperatorSpec,
    partition: BlockPartition,
    density: Density,
    weights: WeightVector,
    m: int,
    trials: int = 200,
    seed=None,
    epsilon: float = 0.01,
) -> Diagnostics:
    """Empirical Lambda_I / mu and the Gram deviation tail at budget m.

    Masks are drawn in the i.i.d. theorem model with the 1/sqrt(m pi_k)
    scaling; supports follow the rejective model of `weights`.  The two
    sufficient-budget evaluations report max_k ||.||/pi_k times the
    log^3 / log^2 factors at the given epsilon (constants omitted).

    `SeedSequence(seed).spawn(2)` seeds two generators: trial t's support
    reads the t-th row of n_free uniforms of the first (`sample_supports`),
    its mask the t-th row of m uniforms of the second (`masks._iid_draw`).
    A stack of trials draws both as blocks and reads A0[:, I] by one
    `transforms.column_pairs` gather: row r is u[t, r // w] * v[t, r % w].
    Its chunks take singleton Lambda numerators as one batched
    |u|^2 (|v|^2)^T, block ones per trial by `eigvalsh`, and the scaled
    Grams of the undeduplicated draws as one batched A_I* A_I.  Stacks of
    at most `_STACK_ENTRIES` entries bound memory for any support size and
    up to `MAX_TRIALS` trials; their size changes no value, since each
    stream is read in order and every batched call treats trials alone.

    Against the per-trial transforms of `tests/reference_diagnostics.py`
    the Lambda samples agree within 1e-13 relative (the products round
    differently); mu, the thresholds, the bounds and the tail count are
    exact.
    """
    if spec.dim > 4096:
        raise DimensionMismatch("diagnostics are limited to K <= 4096")
    if len(density) != partition.m:
        raise DimensionMismatch(f"density has {len(density)} entries for {partition.m} blocks")
    if not 1 <= m <= spec.dim:
        raise InfeasibleBudget(f"budget m must lie in [1, K = {spec.dim}], got {m}")
    if not 1 <= trials <= MAX_TRIALS:
        raise ConfigError(f"diagnostics need trials in [1, {MAX_TRIALS}], got {trials}")
    if not 0 < epsilon < 1:
        raise ConfigError(f"epsilon is a failure probability in (0, 1), got {epsilon}")
    _check_seed(seed)
    gram_terms, inf_terms = block_norm_terms(spec, partition, weights)
    pi = density.pi
    live = pi > 0
    live_cols = slice(None) if live.all() else live  # skips the gather when all are live
    norm = pi[live] * m  # Lambda's denominators pi_k m over the live blocks
    mu = float(np.max(inf_terms[live] / norm))
    threshold_inf1 = float(np.max(inf_terms[live] / pi[live]))
    threshold_gram = float(np.max(gram_terms[live] / pi[live]))
    logk = np.log(spec.dim / epsilon)
    atoms, cum = _categorical_table(density)

    dist = signal_distribution(weights)
    s = dist.sparsity  # every rejective support has this size
    singleton = partition.m == partition.dim
    splits = np.cumsum(partition.sizes)[:-1]  # blocks lie one after another in rows
    lam, hits = np.empty(trials), 0
    support_rng, mask_rng = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))
    # per trial, a stack holds K support and S x size (u, v) entries; a chunk
    # K numerators, m x S draws and an S x S Gram, maybe complex, in half
    n_stack = max(1, _STACK_ENTRIES // max(dist.dim, s * spec.size))
    n_chunk = max(1, (_STACK_ENTRIES >> 1) // max(dist.dim, m * s, s * s))
    for first in range(0, trials, n_stack):
        n = min(n_stack, trials - first)
        supports = sample_supports(dist, n, seed=support_rng)
        u, v = column_pairs(spec, np.flatnonzero(supports) % dist.dim)
        # trial t reads A0[r, I] as u[t, r // w] * v[t, r % w]
        u, v = (f.reshape(n, s, -1).transpose(0, 2, 1).copy() for f in (u, v))
        height, width = u.shape[1], v.shape[1]
        draws = _iid_draw(atoms, cum, mask_rng.random((n, m)))
        scale = (m * pi[draws]) ** -0.5  # theorem scaling, once per draw
        for lo in range(0, n, n_chunk):
            chunk = slice(lo, lo + n_chunk)
            uc, vc, dc, sc = u[chunk], v[chunk], draws[chunk], scale[chunk]
            # Lambda_I = max_k ||B_k[:, I]||^2 / (pi_k m); Grams of every draw
            if singleton:
                block_sq = np.abs(uc) ** 2 @ (np.abs(vc) ** 2).swapaxes(1, 2)  # h x w per trial
                offsets = np.arange(len(uc))[:, None]
                a_i = uc.reshape(-1, s)[dc // width + height * offsets]  # m x S per trial
                a_i *= vc.reshape(-1, s)[dc % width + width * offsets]
                a_i *= sc[:, :, None]
                grams = a_i.conj().swapaxes(1, 2) @ a_i
            else:
                block_sq = np.empty((len(uc), partition.m))
                grams = np.empty((len(uc), s, s), dtype=u.dtype)
                for j, (ut, vt) in enumerate(zip(uc, vc)):
                    cols = ut[partition.rows // width] * vt[partition.rows % width]
                    for k, sub in enumerate(np.split(cols, splits)):
                        gram = sub.conj().T @ sub
                        block_sq[j, k] = np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))[-1].real
                    rows, row_scale = partition.block_rows(dc[j], sc[j])
                    a_i = row_scale[:, None] * ut[rows // width] * vt[rows % width]
                    grams[j] = a_i.conj().T @ a_i
            block_sq = block_sq.reshape(len(uc), -1)[:, live_cols]
            lam[first : first + n][chunk] = np.max(block_sq / norm, axis=1)
            hits += _tail_hits(grams)
    return Diagnostics(
        mu=mu,
        lambda_samples=lam,
        gram_tail_prob=hits / trials,
        m=m,
        threshold_inf1=threshold_inf1,
        threshold_gram=threshold_gram,
        m_bound_inf1=threshold_inf1 * logk**3,
        m_bound_gram=threshold_gram * logk**2,
    )


def _tail_hits(grams: np.ndarray) -> int:
    """Trials whose scaled Gram deviates from I by 1/2 or more in spectral norm."""
    sym = 0.5 * (grams + grams.conj().swapaxes(1, 2))
    dev = np.abs(np.linalg.eigvalsh(sym) - 1.0).max(axis=1)
    return int(np.count_nonzero(dev >= 0.5 - TAIL_TIE_TOL))


# ------------------------------------------------------------ phase transition

@dataclass
class PhasePoint:
    m: int
    success_rate: float
    trials_run: int
    pruned: bool = False


def phase_transition(
    cfg: ExperimentConfig,
    m_grid,
    success_threshold: float = 1e-3,
    prune_target: float | None = None,
) -> dict:
    """Success rate (relative l2 error <= threshold) vs budget per kind.

    Point (kind, m) runs the trials of that kind alone from the entropy
    (master_seed, kind index, m), so kinds are unpaired; a kind with fewer
    atoms of positive mass than m gets a pruned 0.  With prune_target set,
    a point stops once that success rate has become unreachable, flagged
    pruned.  Before any solve, a prune_target outside [0, 1] or a negative
    or non-finite threshold is a `ConfigError`, and a budget that is not
    an integer >= 1 an `InfeasibleBudget`.
    """
    if prune_target is not None and not 0 <= prune_target <= 1:
        raise ConfigError(f"prune_target must lie in [0, 1], got {prune_target}")
    if not (math.isfinite(success_threshold) and success_threshold >= 0):
        raise ConfigError(f"success_threshold must be finite and >= 0, got {success_threshold}")
    budgets = list(m_grid)
    for m in budgets:
        if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 1:
            raise InfeasibleBudget(f"transition budgets must be integers >= 1, got {m!r}")
    # without a prune_target, as with a target of 0, every trial may fail
    max_failures = int(np.floor(cfg.trials * (1.0 - (prune_target or 0.0))))
    densities, dist = _setup(cfg)
    table: dict = {kind: [] for kind in cfg.density_kinds}
    for kind_idx, (kind, density) in enumerate(densities.items()):
        supported = int(np.count_nonzero(density.pi > 0))
        for m in map(int, budgets):
            if m > supported:
                table[kind].append(PhasePoint(m, 0.0, 0, pruned=True))
                continue
            successes = run = 0
            entropy = (cfg.master_seed, kind_idx, m)
            for _, x, _, result in _trials(cfg, dist, {kind: density}, m, entropy):
                run += 1
                err = np.linalg.norm(result.x - x) / np.linalg.norm(x)
                successes += bool(err <= success_threshold)
                if run - successes > max_failures:
                    break
            table[kind].append(PhasePoint(m, successes / run, run, pruned=run < cfg.trials))
    return table
