"""End-to-end experiments, theorem diagnostics and phase-transition sweeps.

Per-trial randomness is derived from the master seed with
numpy.random.SeedSequence: trial t uses `SeedSequence(master).spawn(trials)[t]`,
whose children seed (in order) the signal draw and one mask draw per
density kind.  Reports are therefore fully reproducible from the config
plus the master seed.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

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
    draw_signals,
    flip,
    normalize_weights,
    sample_supports,  # noqa: F401 (bench/spans.py wraps avds.harness.sample_supports)
    sample_supports_seeded,
)
from .transforms import Direction, OperatorSpec, apply

REPORT_SCHEMA_VERSION = 1

# PSNR values at or beyond the numerical noise floor are reported as the
# +inf sentinel; aggregation clips at this cap so means stay ordered.
PSNR_CAP_DB = 240.0
_NOISE_FLOOR_REL = 1e-12

# A Gram deviation within this of 1/2 is a tail hit: exact ties (an eigenvalue
# of exactly 1/2 or 3/2, 26 of 800 trials on the diagnose config) are common,
# and rounding, hence evaluation order, would otherwise decide them.
TAIL_TIE_TOL = 1e-9
# Entries per stack of tail Grams in `diagnostics`, as in density._dense_terms.
_GRAM_STACK_ENTRIES = 1 << 16


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
    lo = side >> levels
    f1 = np.zeros(side, dtype=int)
    seg = lo
    while seg < side:
        f1[seg : 2 * seg] = int(np.log2(seg // lo)) + 1  # 1 = coarsest details
        seg *= 2
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
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.master_seed < 0:
            raise ConfigError("the master seed must be >= 0")
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
            "solver": {
                "continuation_steps": self.solver.continuation_steps,
                "final_mu_factor": self.solver.final_mu_factor,
                "inner_tol": self.solver.inner_tol,
                "max_inner": self.solver.max_inner,
            },
            "weights": dict(self.weight_descriptor),
            "seed_scheme": "SeedSequence(master).spawn(trials); per trial: [signal, mask per kind]",
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
        payload = {
            "schema_version": self.schema_version,
            "config": self.config,
            "psnr_db": self.psnr_db,
            "psnr_mean": self.psnr_mean,
            "psnr_sd": self.psnr_sd,
            "covered_fraction": self.covered_fraction,
            "density_info": self.density_info,
            "unconverged_solves": self.unconverged_solves,
        }
        if include_timing:
            payload["wall_clock_s"] = self.wall_clock_s
        return json.dumps(payload, sort_keys=True, indent=2)


def build_density(kind: str, cfg: ExperimentConfig, weights: WeightVector) -> Density:
    part = cfg.partition
    if kind == "adapted":
        if part.kind == "singletons":
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


def _trial(cfg: ExperimentConfig, x: np.ndarray, density: Density, budget: int, seed):
    """One paired trial step: DISTINCT mask (expanded to rows), measure x, solve."""
    mask = draw_mask(density, budget, mode=DISTINCT, seed=seed)
    if cfg.partition.kind != "singletons":
        mask = expand_blocks(mask, cfg.partition)
    op = MeasurementOp(cfg.spec, mask)
    return mask, solve_bp(measure(x, op), op, cfg.solver)


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Draw signal / density / mask / measure / solve / score per trial.

    The same per-trial signal is scored under every density kind so the
    comparison is paired.  Fully deterministic given the master seed.
    """
    t0 = time.perf_counter()
    densities, dist = _setup(cfg)
    budget = cfg.resolved_budget
    singleton = cfg.partition.kind == "singletons"

    psnr_db: dict = {kind: [] for kind in cfg.density_kinds}
    covered: dict = {kind: [] for kind in cfg.density_kinds}
    unconverged = 0
    trial_seeds = np.random.SeedSequence(cfg.master_seed).spawn(cfg.trials)
    for trial in range(cfg.trials):
        children = trial_seeds[trial].spawn(1 + len(cfg.density_kinds))
        x = draw_signals(dist, 1, seed=children[0])[0]
        peak = float(np.max(np.abs(x)))
        for j, kind in enumerate(cfg.density_kinds):
            mask, result = _trial(cfg, x, densities[kind], budget, children[1 + j])
            covered[kind].append(mask.size / cfg.spec.dim if singleton else mask.covered_fraction)
            if not result.converged:
                unconverged += 1
            psnr_db[kind].append(psnr(x, result.x, peak=peak))

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

    A trial does only its own work: the forward transform of its support,
    its block energies and its mask draw, from a categorical table built
    once per call.  The trials' scaled Grams go into stacks of at most
    2^16 entries, each symmetrised and passed to one `eigvalsh`, so memory
    stays bounded for any support size and trial count.
    """
    if spec.dim > 4096:
        raise DimensionMismatch("diagnostics are limited to K <= 4096")
    if not 1 <= m <= spec.dim:
        raise InfeasibleBudget(f"budget m must lie in [1, K = {spec.dim}], got {m}")
    if trials < 1:
        raise ConfigError("diagnostics need trials >= 1")
    gram_terms, inf_terms = block_norm_terms(spec, partition, weights)
    pi = density.pi
    live = pi > 0
    all_live = bool(live.all())
    norm = pi[live] * m  # Lambda's denominators pi_k m over the live blocks
    mu = float(np.max(inf_terms[live] / norm))
    threshold_inf1 = float(np.max(inf_terms[live] / pi[live]))
    threshold_gram = float(np.max(gram_terms[live] / pi[live]))
    logk = np.log(spec.dim / epsilon)
    atoms, cum = _categorical_table(density)

    dist = signal_distribution(weights)
    # per trial: [support draw, mask draw]
    children = [seq.spawn(2) for seq in np.random.SeedSequence(seed).spawn(trials)]
    supports = sample_supports_seeded(dist, [child[0] for child in children])
    singleton = partition.kind == "singletons"
    lam = np.empty(trials)
    # every rejective support has the same size S, so every tail Gram is S x S
    n_stack = max(1, _GRAM_STACK_ENTRIES // int(supports[0].sum()) ** 2)
    grams = []
    hits = 0
    for t, child in enumerate(children):
        support = np.flatnonzero(supports[t])
        slab = np.zeros((support.size, spec.dim))
        slab[np.arange(support.size), support] = 1.0
        cols = apply(spec, Direction.FORWARD, slab).T  # (K, S) columns of A0
        # Lambda_I = max_k ||B_k[:, I]||^2 / (pi_k m)
        if singleton:
            block_sq = np.sum(np.abs(cols) ** 2, axis=1)
        else:
            block_sq = np.empty(partition.m)
            for k, idx in enumerate(partition.blocks):
                sub = cols[idx, :]
                gram = sub.conj().T @ sub
                block_sq[k] = float(
                    np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))[-1].real
                )
        lam[t] = float(np.max((block_sq if all_live else block_sq[live]) / norm))
        # theorem-scaled mask and its restricted Gram
        rows, mult = _iid_draw(atoms, cum, m, np.random.default_rng(child[1]))
        scale = np.sqrt(mult / (m * pi[rows]))
        if singleton:
            a_i = scale[:, None] * cols[rows, :]
        else:
            a_i = np.concatenate(
                [s * cols[partition.blocks[k], :] for s, k in zip(scale, rows)],
                axis=0,
            )
        grams.append(a_i.conj().T @ a_i)
        if len(grams) == n_stack or t == trials - 1:
            hits += _tail_hits(np.array(grams))
            grams = []
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

    With prune_target set, a grid point stops early once that success
    rate has become unreachable; the point is flagged pruned.
    """
    densities, dist = _setup(cfg)
    table: dict = {kind: [] for kind in cfg.density_kinds}
    for kind_idx, kind in enumerate(cfg.density_kinds):
        supported = int(np.count_nonzero(densities[kind].pi > 0))
        for m in m_grid:
            if m > supported:
                table[kind].append(PhasePoint(int(m), 0.0, 0, pruned=True))
                continue
            seeds = np.random.SeedSequence(
                (cfg.master_seed, kind_idx, int(m))
            ).spawn(cfg.trials)
            successes = 0
            failures = 0
            run = 0
            budget_fail = (
                None
                if prune_target is None
                else int(np.floor(cfg.trials * (1.0 - prune_target)))
            )
            for t in range(cfg.trials):
                children = seeds[t].spawn(2)
                x = draw_signals(dist, 1, seed=children[0])[0]
                result = _trial(cfg, x, densities[kind], int(m), children[1])[1]
                err = np.linalg.norm(result.x - x) / np.linalg.norm(x)
                run += 1
                if err <= success_threshold:
                    successes += 1
                else:
                    failures += 1
                if budget_fail is not None and failures > budget_fail:
                    break
            table[kind].append(
                PhasePoint(int(m), successes / run, run, pruned=run < cfg.trials)
            )
    return table
