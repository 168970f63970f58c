"""Rejective (conditional Bernoulli) support model.

A support I of fixed size S is drawn with probability proportional to
prod_{i in I} w_i * prod_{j notin I} (1 - w_j).  The normaliser and the
exact sequential sampler both run on elementary symmetric polynomials of
the odds w/(1-w), evaluated in log space with the stable two-term
recurrence, so no enumeration over supports is ever needed.  Weights come
from a corpus (`estimate_weights`) or a profile, rescaled to an integer
sum (`normalize_weights`); `sample_supports` and `draw_signals` then
draw supports and signals from the model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidWeights

_SUM_TOL = 1e-6

# Largest log-ESP table, (n_free + 1) x (r + 1) float64 entries for n_free
# weights in (0, 1) and r free picks; a model needing more raises InvalidWeights
# before allocating.  2^26 entries is 512 MB and admits K = 65536 at S = 655.
MAX_ESP_ENTRIES = 1 << 26


@dataclass
class WeightVector:
    """Per-coefficient inclusion weights with their sum S = sum(omega)."""

    omega: np.ndarray
    sparsity: float

    @classmethod
    def from_omega(cls, omega) -> "WeightVector":
        omega = np.asarray(omega, dtype=float)
        if omega.ndim != 1 or omega.size == 0:
            raise InvalidWeights("omega must be a nonempty 1D vector")
        if not np.all((omega >= -1e-12) & (omega <= 1 + 1e-12)):  # NaN fails too
            raise InvalidWeights("omega entries must lie in [0, 1]")
        omega = np.clip(omega, 0.0, 1.0)
        return cls(omega=omega, sparsity=float(omega.sum()))

    def matrix(self) -> np.ndarray:
        """Weight matrix W with vec(W) = omega (column-major)."""
        side = int(round(np.sqrt(self.omega.size)))
        if side * side != self.omega.size:
            raise InvalidWeights("omega length is not a perfect square")
        return self.omega.reshape(side, side).T

    def __len__(self) -> int:
        return int(self.omega.size)


def flip(v: np.ndarray) -> np.ndarray:
    """Exact index reversal of a coefficient vector; involutive."""
    return np.asarray(v)[::-1].copy()


def estimate_weights(corpus, threshold: float, mode: str = "absolute") -> WeightVector:
    """Relative frequency with which each coefficient exceeds the threshold.

    mode "absolute" compares |coefficient| directly to the threshold;
    "relative" scales the threshold by each vector's max magnitude.
    """
    corpus = np.atleast_2d(np.asarray(corpus))
    if corpus.size == 0:
        raise InvalidWeights("corpus is empty")
    if threshold <= 0:
        raise InvalidWeights("threshold must be positive")
    mags = np.abs(corpus)
    if mode == "absolute":
        hits = mags > threshold
    elif mode == "relative":
        peak = mags.max(axis=1, keepdims=True)
        hits = mags > threshold * peak
    else:
        raise InvalidWeights(f"unknown threshold mode {mode!r}")
    omega = hits.mean(axis=0)
    if not np.any(omega > 0):
        raise InvalidWeights("no coefficient survived thresholding")
    return WeightVector.from_omega(omega)


def normalize_weights(omega, s_target: float) -> WeightVector:
    """Rescale omega to sum to s_target, clamping at 1 and redistributing.

    Entries pushed above 1 are clamped and the excess is spread
    proportionally over the remaining entries until the sum constraint
    holds to 1e-9.
    """
    omega = np.asarray(omega, dtype=float).copy()
    if np.any(omega < 0):
        raise InvalidWeights("omega entries must be nonnegative")
    positive = omega > 0
    if not np.any(positive):
        raise InvalidWeights("omega must not be all zero")
    if s_target > positive.sum() + 1e-12:
        raise InvalidWeights(
            f"target sum {s_target} exceeds the {int(positive.sum())} positive entries"
        )
    # divide before scaling: ratios stay <= 1 even for subnormal inputs
    w = (omega / omega.sum()) * s_target
    clamped = np.zeros(len(w), dtype=bool)
    for _ in range(len(w)):
        over = w > 1.0
        if not over.any():
            break
        clamped |= over
        w[clamped] = 1.0
        deficit = s_target - clamped.sum()
        free = ~clamped & positive
        total_free = w[free].sum()
        if total_free == 0 and free.any():
            # the rescaled free weights underflowed: spread by the raw ones
            w[free] = omega[free]
            total_free = w[free].sum()
        if deficit < -1e-12 or (deficit > 1e-12 and total_free == 0):
            raise InvalidWeights("cannot redistribute excess mass")
        if total_free > 0:
            w[free] = (w[free] / total_free) * deficit
    if abs(w.sum() - s_target) > 1e-9:
        raise InvalidWeights("normalisation failed to reach the target sum")
    return WeightVector(omega=w, sparsity=float(s_target))


def _log_suffix_esp(log_odds: np.ndarray, r_max: int) -> np.ndarray:
    """Table E[i, j] = log e_j(odds[i:]) via the stable two-term recurrence.

    E[i, j] = logaddexp(E[i + 1, j], log_odds[i] + E[i + 1, j - 1]) runs
    up column j as one reversed logaddexp accumulation; E[n, j > 0] = -inf.
    Column-major, since the sampler reads one column per round.
    """
    n = len(log_odds)
    table = np.full((n + 1, r_max + 1), -np.inf, order="F")
    table[:, 0] = 0.0
    for j in range(1, r_max + 1):
        terms = log_odds + table[1:, j - 1]
        table[:n, j] = np.logaddexp.accumulate(terms[::-1])[::-1]
    return table


@dataclass
class SupportDistribution:
    """Rejective sampling model with cached normaliser and ESP tables."""

    weights: WeightVector
    _forced: np.ndarray = field(init=False, repr=False)
    _free: np.ndarray = field(init=False, repr=False)
    _log_odds: np.ndarray = field(init=False, repr=False)
    _esp: np.ndarray = field(init=False, repr=False)
    log_normalizer: float = field(init=False)

    def __post_init__(self) -> None:
        omega = self.weights.omega
        s_round = int(round(self.weights.sparsity))
        if abs(self.weights.sparsity - s_round) > _SUM_TOL or s_round < 1:
            raise InvalidWeights(
                "support distribution needs sum(omega) equal to a positive "
                f"integer; got {self.weights.sparsity} (normalize first)"
            )
        if s_round > len(omega):
            raise InvalidWeights("sparsity exceeds dimension")
        self._forced = np.flatnonzero(omega >= 1.0)
        self._free = np.flatnonzero((omega > 0.0) & (omega < 1.0))
        r = s_round - len(self._forced)
        if r < 0 or r > len(self._free):
            raise InvalidWeights("weights cannot produce supports of size S")
        if (len(self._free) + 1) * (r + 1) > MAX_ESP_ENTRIES:
            raise InvalidWeights(
                f"the support model needs a {len(self._free) + 1} x {r + 1} table, "
                f"more than {MAX_ESP_ENTRIES} entries"
            )
        with np.errstate(divide="ignore"):
            w_free = omega[self._free]
            self._log_odds = np.log(w_free) - np.log1p(-w_free)
        self._esp = _log_suffix_esp(self._log_odds, r)
        log_e_r = self._esp[0, r] if r >= 0 else -np.inf
        self.log_normalizer = -(np.log1p(-omega[self._free]).sum() + log_e_r)

    @property
    def sparsity(self) -> int:
        return int(round(self.weights.sparsity))

    @property
    def normalizer(self) -> float:
        """The constant c of the model; may overflow for extreme weights."""
        return float(np.exp(self.log_normalizer))

    @property
    def dim(self) -> int:
        return len(self.weights)

    @property
    def _r(self) -> int:
        return self.sparsity - len(self._forced)


def sample_supports(dist: SupportDistribution, n: int, seed=None) -> np.ndarray:
    """Draw n exact supports as a boolean (n, K) matrix; deterministic given seed."""
    rng = np.random.default_rng(seed)
    return _sequential_supports(dist, rng.random((n, len(dist._free))))


def sample_supports_seeded(dist: SupportDistribution, seeds) -> np.ndarray:
    """One exact support per seed, as a boolean (len(seeds), K) matrix.

    Row i equals sample_supports(dist, 1, seed=seeds[i])[0]: each row's
    uniforms come from its own generator, and one sequential pass then
    draws all rows together.
    """
    u = np.array([np.random.default_rng(seed).random(len(dist._free)) for seed in seeds])
    # the reshape keeps two axes when there are no seeds
    return _sequential_supports(dist, u.reshape(len(seeds), len(dist._free)))


def _sequential_supports(dist: SupportDistribution, u: np.ndarray) -> np.ndarray:
    """Supports as a boolean (len(u), K) matrix by the sequential scheme, row i driven by u[i].

    Forced indices are set in every row.  With r indices left, free index
    t is taken when u[i, t] < p_r[t] = odds_t e_{r-1}(suffix t+1) / e_r(suffix t),
    and always at t = n_free - r, where as many slots as indices remain.
    The scan runs in inclusion rounds: in round k every row has r = R - k
    indices left, so all rows share the column p_r, and each jumps from its
    scan position to its next accepted or forced index.  The rows are
    independent: each row's draws depend on its uniforms only.
    """
    out = np.zeros((len(u), dist.dim), dtype=bool)
    out[:, dist._forced] = True
    esp = dist._esp
    log_odds = dist._log_odds
    n_free = len(dist._free)
    rows = np.arange(len(u))
    pos = np.zeros(len(u), dtype=np.int64)  # next index each row scans
    for r in range(dist._r, 0, -1):
        # every row has pos <= n_free - r; the initial value serves zero rows
        lo, last = int(pos.min(initial=n_free - r)), n_free - r
        log_p = log_odds[lo : last + 1] + esp[lo + 1 : last + 2, r - 1] - esp[lo : last + 1, r]
        take = u[:, lo : last + 1] < np.exp(np.minimum(log_p, 0.0))
        take &= np.arange(lo, last + 1) >= pos[:, None]
        take[:, -1] = True
        pos = lo + np.argmax(take, axis=1)
        out[rows, dist._free[pos]] = True
        pos += 1
    return out


def draw_signals(dist: SupportDistribution, n: int, seed=None) -> np.ndarray:
    """n signal vectors (n, K): rejective supports, iid +-1 magnitudes."""
    rng = np.random.default_rng(seed)
    masks = sample_supports(dist, n, seed=rng.integers(2**63))
    signs = rng.integers(0, 2, size=masks.shape) * 2 - 1
    return masks * signs.astype(float)
