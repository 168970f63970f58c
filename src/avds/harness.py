"""End-to-end experiments, theorem diagnostics and phase-transition sweeps.

Experiments and phase transitions share one trial pipeline and one seed
scheme: trial t at budget m uses
`SeedSequence((master seed, m)).spawn(trials)[t]`, whose two children seed
the signal draw and the mask draw.  Every density kind draws its distinct
mask from that one mask child, so kinds are paired on signals and on mask
keys, and an experiment at budget m runs exactly the trials of the
transition point at m.  The theorem diagnostics read two streams per
budget: `SeedSequence(seed).spawn(2)` seeds one generator for the supports
and one for the i.i.d. masks, and trial t reads the t-th row of each.
Reports are therefore fully reproducible from the config plus the master
seed.

`_trials` scores each solve once, into a `_Trial` record: the kind, the
rows its mask covers, the PSNR, recovery (relative l2 error at most
`RECOVERY_REL_ERR`) and convergence.  Experiments and transitions only
reduce these records.
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import asdict, dataclass, field
from numbers import Real
from typing import NamedTuple

import numpy as np

from .density import (
    BlockPartition,
    Density,
    adapted_blocks,
    adapted_isolated,  # noqa: F401 (bench/spans.py wraps avds.harness.adapted_isolated)
    baseline_density,
    block_norm_terms,
)
from .errors import (
    ConfigError,
    DimensionMismatch,
    InfeasibleBudget,
    InvalidPartition,
    InvalidWeights,
    _check_real,
)
from .masks import DISTINCT, _categorical_table, _iid_draw, draw_mask, expand_blocks
from .recon import MeasurementOp, SolverParams, measure, solve_bp
from .support_model import (
    SupportDistribution,
    WeightVector,
    _check_count,
    _check_seed,
    draw_signals,
    flip,
    normalize_weights,
    sample_supports,
)
from .transforms import MAX_DIM, OperatorSpec, _bands_1d, _grid_bands, column_pairs
from .transforms import apply  # noqa: F401 (bench/spans.py wraps avds.harness.apply)

REPORT_SCHEMA_VERSION = 4

# A trial recovers its signal when the relative l2 error is at most this.
RECOVERY_REL_ERR = 1e-3

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
# Entries per stack of trials in `diagnostics` (supports, column pairs, tail
# Grams); a chunk of a stack (Lambda numerators, the drawn blocks' rows) holds
# half as many, with block numerators counted as the block table times S.
_STACK_ENTRIES = 1 << 15
# A diagnose run's defaults, for `diagnostics` and the CLI's diagnose
# configs: trials per budget and the failure probability epsilon.
_DIAGNOSE_TRIALS, _DIAGNOSE_EPSILON = 200, 0.01


def psnr(ref: np.ndarray, rec: np.ndarray) -> float:
    """10 log10(peak^2 / MSE) with peak max |ref|; exact (or noise-floor)
    matches give +inf."""
    ref = np.asarray(ref)
    rec = np.asarray(rec)
    if ref.shape != rec.shape:
        raise DimensionMismatch("reference and reconstruction shapes differ")
    if ref.size == 0:
        raise DimensionMismatch("reference and reconstruction are empty")
    peak = float(np.max(np.abs(ref)))
    if not 0 < peak < math.inf:
        raise DimensionMismatch(f"the reference peak must be positive and finite, got {peak}")
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
    base * decay^f, optionally rescaled to sum to s_target.  The grid, as an
    operator's, holds at most `MAX_DIM` coefficients.
    """
    side = _check_count(side, "the profile side", 1)
    levels = _check_count(levels, "the profile levels")
    if side >> levels == 0:
        raise ConfigError(f"a weight profile of side {side} cannot have {levels} levels")
    if side * side > MAX_DIM:
        raise ConfigError(f"a {side} x {side} profile exceeds the limit K <= {MAX_DIM}")
    base = _check_real(base, "the profile base", InvalidWeights)
    decay = _check_real(decay, "the profile decay", InvalidWeights)
    # per axis 0 on the approximation, 1 on the coarsest details; column-major
    rows, cols = _grid_bands(_bands_1d(side, levels))
    if layout == "mra2d":
        f = np.maximum(rows, cols)
    elif layout == "tensor2d":
        f = rows + cols
    else:
        raise ConfigError(f"unknown weight profile layout {layout!r}")
    omega = np.clip(base * decay ** f.astype(float), 0.0, 1.0)
    if s_target is not None:
        return normalize_weights(omega, s_target)
    return WeightVector.from_omega(omega)


def _fraction_budget(fraction, atoms: int) -> int:
    """The budget max(1, round(fraction * atoms)) of a number `fraction` in (0, 1]."""
    # compared before float(): a huge integer is out of range, not an overflow
    if isinstance(fraction, bool) or not isinstance(fraction, Real) or not 0 < fraction <= 1:
        raise ConfigError(f"the fraction must be a number in (0, 1], got {fraction!r}")
    return max(1, round(fraction * atoms))


@dataclass
class ExperimentConfig:
    """The settings of one run, each checked here once, so that library
    callers get the errors of the CLI loader, which builds its configs here."""

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
        self.trials = _check_count(self.trials, "trials", 1)
        if self.trials > MAX_TRIALS:
            raise ConfigError(f"trials must lie in [1, {MAX_TRIALS}], got {self.trials}")
        self.master_seed = _check_count(self.master_seed, "the master seed")
        kinds = self.density_kinds
        known = isinstance(kinds, (list, tuple)) and all(k in DENSITY_KINDS for k in kinds)
        if not (known and kinds):
            raise ConfigError(f"need a non-empty list of kinds from {DENSITY_KINDS}, got {kinds!r}")
        if len(set(kinds)) < len(kinds):
            # one kind's trials would be pooled under one report key
            raise ConfigError(f"density kinds repeat: {kinds}")
        for name, kind in (
            ("spec", OperatorSpec), ("weights", WeightVector),
            ("solver", SolverParams), ("weight_descriptor", dict),
        ):
            if not isinstance(getattr(self, name), kind):
                raise ConfigError(f"{name} must be a {kind.__name__}, got {getattr(self, name)!r}")
        if not isinstance(self.flip_coefficients, bool):
            raise ConfigError(f"flip must be true or false, got {self.flip_coefficients!r}")
        if self.fraction is not None:
            _fraction_budget(self.fraction, 1)  # checks the fraction
            self.fraction = float(self.fraction)
        if self.budget is not None:
            self.budget = _check_count(self.budget, "the budget", 1, InfeasibleBudget)
        elif self.fraction is None:
            raise ConfigError("need a budget or a fraction in (0, 1]")
        if self.partition is None:
            self.partition = BlockPartition.singletons(self.spec.dim)
        elif self.partition.dim != self.spec.dim:
            raise InvalidPartition("partition does not match the operator dimension")

    @property
    def resolved_budget(self) -> int:
        if self.budget is not None:
            return self.budget
        return _fraction_budget(self.fraction, self.partition.m)

    def describe(self) -> dict:
        """The config as a report records it.

        `seed_scheme` names every random stream of a run: the per-trial seeds,
        the support draw (by inverse CDF, one uniform per free pick, see
        `support_model.sample_supports`) and the distinct masks.  It changes
        whenever a stream does, together with `REPORT_SCHEMA_VERSION`.
        """
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
                "SeedSequence((master, budget)).spawn(trials); per trial: [signal, mask], "
                "the mask child shared by every kind; "
                "supports by inverse CDF, one uniform per free pick; "
                "distinct masks by exponential keys, one per atom"
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


# The densities a run compares: the adapted one and the three baselines.
DENSITY_KINDS = ("adapted", "uniform", "coherence", "polynomial")


def build_density(kind: str, cfg: ExperimentConfig, weights: WeightVector) -> Density:
    if kind == "adapted":
        return adapted_blocks(cfg.spec, cfg.partition, weights)
    return baseline_density(kind, cfg.spec, cfg.partition)


def signal_distribution(weights: WeightVector) -> SupportDistribution:
    """The rejective model of `weights` rescaled to an integer sum S >= 1.

    One model serves every call with the same omega content and S: the last
    one built is kept, with its arrays read-only.
    """
    s_int = max(1, int(round(weights.sparsity)))
    return _signal_model(np.asarray(weights.omega, dtype=float).tobytes(), s_int)


@functools.lru_cache(maxsize=1)
def _signal_model(omega: bytes, s: int) -> SupportDistribution:
    dist = SupportDistribution(normalize_weights(np.frombuffer(omega), s))
    for array in (dist.weights.omega, dist._forced, dist._free, dist._esp):
        array.flags.writeable = False
    return dist


def _setup(cfg: ExperimentConfig) -> tuple[dict, SupportDistribution]:
    """Densities per kind and the signal distribution, from the (flipped) weights."""
    weights = cfg.weights
    if cfg.flip_coefficients:
        weights = WeightVector.from_omega(flip(weights.omega))
    densities = {kind: build_density(kind, cfg, weights) for kind in cfg.density_kinds}
    return densities, signal_distribution(weights)


class _Trial(NamedTuple):
    """One solve's outcome; `covered` is the fraction of the K rows its mask holds."""

    kind: str
    covered: float
    psnr_db: float
    recovered: bool
    converged: bool


def _trials(cfg: ExperimentConfig, dist, densities: dict, budget: int):
    """A `_Trial` per trial and density, seeded as the module docstring says."""
    for seed in np.random.SeedSequence((cfg.master_seed, budget)).spawn(cfg.trials):
        signal_seed, mask_seed = seed.spawn(2)
        x = draw_signals(dist, 1, seed=signal_seed)[0]
        for kind, density in densities.items():
            mask = draw_mask(density, budget, mode=DISTINCT, seed=mask_seed)
            mask = expand_blocks(mask, cfg.partition)
            op = MeasurementOp(cfg.spec, mask)
            result = solve_bp(measure(x, op), op, cfg.solver)
            err = float(np.linalg.norm(result.x - x) / np.linalg.norm(x))
            covered = mask.size / cfg.spec.dim
            yield _Trial(kind, covered, psnr(x, result.x), err <= RECOVERY_REL_ERR, result.converged)


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """The report of the `_Trial` records of every trial and density kind.

    Every density kind is scored on each trial's signal, with masks keyed
    by the trial's one mask child, so the comparison is paired.  Fully
    deterministic given the master seed.
    """
    t0 = time.perf_counter()
    densities, dist = _setup(cfg)
    records = list(_trials(cfg, dist, densities, cfg.resolved_budget))
    psnr_db = {k: [r.psnr_db for r in records if r.kind == k] for k in densities}
    covered = {k: [r.covered for r in records if r.kind == k] for k in densities}

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
        unconverged_solves=sum(not r.converged for r in records),
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
    trials: int = _DIAGNOSE_TRIALS,
    seed=None,
    epsilon: float = _DIAGNOSE_EPSILON,
) -> Diagnostics:
    """Empirical Lambda_I / mu and the Gram deviation tail at budget m.

    Masks are drawn in the i.i.d. theorem model with the 1/sqrt(m pi_k)
    scaling; supports follow the rejective model of `weights`.  The two
    sufficient-budget evaluations report max_k ||.||/pi_k times the
    log^3 / log^2 factors at the given epsilon (constants omitted).

    `SeedSequence(seed).spawn(2)` seeds two generators: trial t's support
    reads the t-th row of R uniforms of the first, one per free pick
    (`sample_supports`), its mask the t-th row of m uniforms of the second
    (`masks._iid_draw`).  The block terms (`block_norm_terms`) and the
    support model (`signal_distribution`) are memoised by content, so calls
    at several budgets on one config build each once.
    A stack of trials draws both as blocks and reads A0[:, I] by one
    `transforms.column_pairs` gather: row r is u[t, r // w] * v[t, r % w],
    and the padding index K of `BlockPartition.table` reads a zero row of u.
    Every partition runs one path.  A chunk takes isolated-row Lambda
    numerators as one batched |u|^2 (|v|^2)^T, and block ones by one
    stacked `eigvalsh` of each block's Gram on its shorter side (B B* when
    a block has fewer rows than the support, else B* B; both have the
    largest eigenvalue ||B||^2).  It gathers the rows of every drawn block,
    `table[draws]`, at once, and writes the scaled Grams of the
    undeduplicated draws, one batched A_I* A_I, into the stack's Gram
    buffer.  `_tail_hits` screens the stack's Grams in one call and sends
    to `eigvalsh` only the trials its bound leaves undecided.  The
    draws read their scaling 1/sqrt(m pi_k) from a table of one entry per
    block.  Stacks of at most `_STACK_ENTRIES` entries bound memory
    for any support size and up to `MAX_TRIALS` trials; their size changes
    no value, since each stream is read in order and every batched call
    treats trials alone.

    Against the per-trial transforms of `tests/reference_diagnostics.py`
    the Lambda samples agree within 1e-13 relative (the products, and the
    Grams of blocks shorter than the support, round differently); mu, the
    thresholds, the bounds and the tail count are exact.
    """
    if spec.dim > 4096:
        raise DimensionMismatch("diagnostics are limited to K <= 4096")
    if len(density) != partition.m:
        raise DimensionMismatch(f"density has {len(density)} entries for {partition.m} blocks")
    if _check_count(m, "budget m", 1, InfeasibleBudget) > spec.dim:
        raise InfeasibleBudget(f"budget m must lie in [1, K = {spec.dim}], got {m}")
    if _check_count(trials, "trials", 1) > MAX_TRIALS:
        raise ConfigError(f"diagnostics need trials in [1, {MAX_TRIALS}], got {trials}")
    if not 0 < _check_real(epsilon, "epsilon", ConfigError) < 1:
        raise ConfigError(f"epsilon is a failure probability in (0, 1), got {epsilon}")
    _check_seed(seed, numpy_seeds=False)  # SeedSequence(seed) takes entropy only
    gram_terms, inf_terms = block_norm_terms(spec, partition, weights)
    pi = density.pi
    live = pi > 0
    live_cols = slice(None) if live.all() else live  # skips the gather when all are live
    norm = pi[live] * m  # Lambda's denominators pi_k m over the live blocks
    threshold_inf1 = float(np.max(inf_terms[live] / pi[live]))
    threshold_gram = float(np.max(gram_terms[live] / pi[live]))
    logk = np.log(spec.dim / epsilon)
    atoms, cum = _categorical_table(density)
    atom_scale = np.zeros(partition.m)
    atom_scale[atoms] = (m * pi[atoms]) ** -0.5  # the theorem scaling of a drawn block

    dist = signal_distribution(weights)
    s = dist.sparsity  # every rejective support has this size
    table, b = partition.table, partition.table.shape[1]
    pad = int(partition.sizes.min() < b)  # u's zero row h, read by the padding index K
    # per trial, a stack holds K support, S x size (u, v) and S x S Gram
    # entries, maybe complex; a chunk the Lambda numerators (K if b = 1, else
    # the table times S) and m x b x S draws, in half
    n_stack = max(1, _STACK_ENTRIES // max(dist.dim, s * spec.size, s * s))
    n_chunk = max(1, (_STACK_ENTRIES >> 1) // max(table.size * (s if b > 1 else 1), m * b * s))
    lam, hits = np.empty(trials), 0
    support_rng, mask_rng = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))
    for first in range(0, trials, n_stack):
        n = min(n_stack, trials - first)
        supports = sample_supports(dist, n, seed=support_rng)
        u, v = column_pairs(spec, np.flatnonzero(supports) % dist.dim)
        # trial t reads A0[r, I] as u[t, r // w] * v[t, r % w]
        u, v = (f.reshape(n, s, -1).transpose(0, 2, 1) for f in (u, v))
        u = np.concatenate((u, np.zeros((n, pad, s), u.dtype)), axis=1)
        v = v.copy()
        height, width = u.shape[1], v.shape[1]
        draws = _iid_draw(atoms, cum, mask_rng.random((n, m)))
        scale = atom_scale[draws]
        grams = np.empty((n, s, s), u.dtype)  # the stack's tail Grams, screened at once
        for lo in range(0, n, n_chunk):
            chunk = slice(lo, lo + n_chunk)
            uc, vc, sc = u[chunk], v[chunk], scale[chunk]
            # Lambda_I = max_k ||B_k[:, I]||^2 / (pi_k m), the norm from the shorter side
            if b == 1:
                block_sq = np.abs(uc) ** 2 @ (np.abs(vc) ** 2).swapaxes(1, 2)  # h x w
            else:
                cols = uc[:, table // width] * vc[:, table % width]  # m x b x S per trial
                cols_h = cols.conj().swapaxes(2, 3)
                short = cols @ cols_h if b < s else cols_h @ cols
                short = 0.5 * (short + short.conj().swapaxes(2, 3))
                block_sq = np.linalg.eigvalsh(short)[..., -1]
            block_sq = block_sq.reshape(len(uc), -1)[:, live_cols]
            lam[first : first + n][chunk] = np.max(block_sq / norm, axis=1)
            # the scaled Gram of every drawn block's rows, padding rows zero
            rows = np.take(table, draws[chunk], axis=0).reshape(len(uc), -1)  # m x b per trial
            offsets = np.arange(len(uc))[:, None]
            # np.take: the row gathers of fancy indexing at a third of its cost
            a_i = np.take(uc.reshape(-1, s), rows // width + height * offsets, axis=0)
            a_i *= np.take(vc.reshape(-1, s), rows % width + width * offsets, axis=0)
            a_i *= (sc if b == 1 else np.repeat(sc, b, axis=1))[:, :, None]
            np.matmul(a_i.conj().swapaxes(1, 2), a_i, out=grams[chunk])
        hits += _tail_hits(grams)
    return Diagnostics(
        mu=float(np.max(inf_terms[live] / norm)),
        lambda_samples=lam,
        gram_tail_prob=hits / trials,
        m=m,
        threshold_inf1=threshold_inf1,
        threshold_gram=threshold_gram,
        m_bound_inf1=threshold_inf1 * logk**3,
        m_bound_gram=threshold_gram * logk**2,
    )


def diagnose_rows(cfg: ExperimentConfig, budgets, epsilon: float) -> list:
    """The rows `avds diagnose` prints, one per budget of `budgets`.

    The run builds the density of the config's first kind once, then calls
    `diagnostics` at each budget; the memos share one set of block terms and
    one support model across the calls.  A row holds the `Diagnostics`
    fields, with the Lambda samples given as their mean and max.
    """
    density = build_density(cfg.density_kinds[0], cfg, cfg.weights)
    inputs = (cfg.spec, cfg.partition, density, cfg.weights)
    rows = []
    for m in budgets:
        row = asdict(diagnostics(*inputs, m, cfg.trials, cfg.master_seed, epsilon))
        lam = row.pop("lambda_samples")
        rows.append(dict(row, lambda_mean=float(np.mean(lam)), lambda_max=float(np.max(lam))))
    return rows


def _tail_hits(grams: np.ndarray) -> int:
    """Trials whose scaled Gram deviates from I by 1/2 or more in spectral norm.

    The deviation ||G - I|| of the Hermitian G is at least its largest
    column norm c = max_j ||(G - I) e_j||, which is at least every |G_jj - 1|
    and ||G e_j|| - 1.  `eigvalsh` errs by far less than 1e-12 ||G||, and
    ||G|| <= ||G||_F <= sqrt(S) (c + 1) for S x S Grams.  So a trial with
    c >= 1/2 - `TAIL_TIE_TOL` + 1e-12 sqrt(S) (c + 1) is a hit without an
    eigensolve, and only the other trials go to `eigvalsh`: the count is the
    one it gives on every trial.
    """
    sym = 0.5 * (grams + grams.conj().swapaxes(1, 2))
    threshold = 0.5 - TAIL_TIE_TOL
    off = sym - np.eye(sym.shape[1])
    col = np.sqrt(np.einsum("nij,nij->nj", off, off.conj()).real.max(axis=1))
    margin = 1e-12 * np.sqrt(sym.shape[1])
    sure = col * (1.0 - margin) >= threshold + margin
    hits = int(np.count_nonzero(sure))
    if hits < len(sym):
        dev = np.abs(np.linalg.eigvalsh(sym[~sure]) - 1.0).max(axis=1)
        hits += int(np.count_nonzero(dev >= threshold))
    return hits


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
    prune_target: float | None = None,
) -> dict:
    """The share of recovered trials (`_Trial.recovered`) vs budget per kind.

    Point (kind, m) runs the trials of that kind alone, seeded as the
    experiment at budget m seeds them, so kinds are paired; a kind with fewer
    atoms of positive mass than m gets a pruned 0.  With prune_target set,
    a point stops, flagged pruned, once its best reachable success rate
    (trials - failures) / trials is below the target.  Before any solve, a
    prune_target that is not a real number in [0, 1] is a `ConfigError`,
    and a budget that is not an integer >= 1 an `InfeasibleBudget`.
    """
    # without a prune_target, as with a target of 0, every trial may fail
    target = 0.0 if prune_target is None else _check_real(prune_target, "prune_target", ConfigError)
    if not 0 <= target <= 1:
        raise ConfigError(f"prune_target must lie in [0, 1], got {prune_target}")
    budgets = [_check_count(m, "a transition budget", 1, InfeasibleBudget) for m in m_grid]
    densities, dist = _setup(cfg)
    table: dict = {kind: [] for kind in cfg.density_kinds}
    for kind, density in densities.items():
        supported = int(np.count_nonzero(density.pi > 0))
        for m in budgets:
            if m > supported:
                table[kind].append(PhasePoint(m, 0.0, 0, pruned=True))
                continue
            successes = run = 0
            for trial in _trials(cfg, dist, {kind: density}, m):
                run += 1
                successes += trial.recovered
                if (cfg.trials - run + successes) / cfg.trials < target:
                    break
            table[kind].append(PhasePoint(m, successes / run, run, pruned=run < cfg.trials))
    return table
