"""Rejective (conditional Bernoulli) support model.

A support I of fixed size S is drawn with probability proportional to
prod_{i in I} w_i * prod_{j notin I} (1 - w_j).  The exact draw-by-draw
sampler runs on elementary symmetric polynomials of the odds w/(1-w),
evaluated in log space with the stable two-term recurrence, so no
enumeration over supports is ever needed; the normaliser, which the
sampler never reads, is left to the test oracle
(`tests/reference_support.support_prob`).  Weights come from a corpus
(`estimate_weights`) or a profile, rescaled to an integer sum
(`normalize_weights`); `sample_supports` and `draw_signals` then draw
supports and signals from the model.  A `WeightVector` is checked once,
when it is built, and cannot change after: every reader trusts it.  Two
weight vectors are equal, and hash alike, when their omega bytes are, so
the caches of `density` and `harness` key on them directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidWeights, _check_count, _check_real, _check_reals

_SUM_TOL = 1e-6

# Largest log-ESP table, (n_free + 1) x (r + 1) float64 entries for n_free
# weights in (0, 1) and r free picks; a model needing more raises InvalidWeights
# before allocating.  2^26 entries is 512 MB and admits K = 65536 at S = 655.
MAX_ESP_ENTRIES = 1 << 26


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Per-coefficient inclusion weights omega in [0, 1], with S = sum(omega).

    Checked once, here: entries that are not real numbers, a vector that is
    not 1D and nonempty, or an entry outside [0, 1] (NaN included) is an
    InvalidWeights; entries within 1e-12 of the range are clipped into it.
    `omega` is a read-only copy, and `sparsity` is its sum.  Equality and
    the hash read `omega.tobytes()`; any other type is unequal.
    """

    omega: np.ndarray
    sparsity: float = field(init=False)

    def __post_init__(self) -> None:
        omega = _check_reals(self.omega, "omega entries", InvalidWeights)
        if omega.ndim != 1 or omega.size == 0:
            raise InvalidWeights("omega must be a nonempty 1D vector")
        if not np.all((omega >= -1e-12) & (omega <= 1 + 1e-12)):  # NaN fails too
            raise InvalidWeights("omega entries must lie in [0, 1]")
        omega = np.clip(omega, 0.0, 1.0)  # a new array
        omega.flags.writeable = False
        vars(self).update(omega=omega, sparsity=float(omega.sum()))  # past the frozen __setattr__

    def matrix(self) -> np.ndarray:
        """Weight matrix W with vec(W) = omega (column-major)."""
        side = int(round(np.sqrt(self.omega.size)))
        if side * side != self.omega.size:
            raise InvalidWeights("omega length is not a perfect square")
        return self.omega.reshape(side, side).T

    def __len__(self) -> int:
        return int(self.omega.size)

    def __eq__(self, other) -> bool:
        return isinstance(other, WeightVector) and self.omega.tobytes() == other.omega.tobytes()

    def __hash__(self) -> int:
        return hash(self.omega.tobytes())


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
    if _check_real(threshold, "threshold", InvalidWeights) <= 0:
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
    return WeightVector(omega)


def normalize_weights(omega, s_target: float) -> WeightVector:
    """Rescale omega to w = min(1, c * omega), the one c with sum(w) = s_target.

    Water-filling: with the positive entries sorted by decreasing omega,
    the k largest clamp at 1 for the smallest k at which the next one,
    scaled to carry the remaining s_target - k, is at most 1; then
    c = (s_target - k) / (sum of the other entries).  Without a clamp, w is
    omega / sum(omega) * s_target.  Weights whose sum overflows are
    divided by their largest entry first.
    """
    if not _check_real(s_target, "target sum", InvalidWeights) > 0:
        raise InvalidWeights(f"target sum must be positive, got {s_target}")
    omega = _check_reals(omega, "omega entries", InvalidWeights)
    if not np.all(np.isfinite(omega)):
        raise InvalidWeights("omega entries must be finite")
    if np.any(omega < 0):
        raise InvalidWeights("omega entries must be nonnegative")
    positive = omega > 0
    if not np.any(positive):
        raise InvalidWeights("omega must not be all zero")
    if s_target > positive.sum() + 1e-12:
        raise InvalidWeights(
            f"target sum {s_target} exceeds the {int(positive.sum())} positive entries"
        )
    with np.errstate(over="ignore"):
        if not np.isfinite(omega.sum()):
            omega = omega / omega.max()
    # divide before scaling: ratios stay <= 1 even for subnormal inputs
    w = (omega / omega.sum()) * s_target
    if w.max() > 1.0:
        order = np.argsort(-omega, kind="stable")[: np.count_nonzero(positive)]
        top = omega[order]
        tail = np.cumsum(top[::-1])[::-1]  # tail[i] = sum(top[i:]), from the raw omega
        fits = top * (s_target - np.arange(top.size)) <= tail
        k = int(np.argmax(fits)) if fits.any() else top.size  # none fits: all clamp
        w[order[:k]] = 1.0
        if k < top.size:
            # rounding may put the largest free entry one ulp above 1
            w[order[k:]] = np.minimum(top[k:] / tail[k] * (s_target - k), 1.0)
    if not abs(w.sum() - s_target) <= 1e-9:  # NaN fails too
        raise InvalidWeights("normalisation failed to reach the target sum")
    return WeightVector(w)


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


@dataclass(frozen=True, eq=False)
class SupportDistribution:
    """Rejective sampling model: the forced and free indices and the
    log-ESP table of the free odds, all that the sampler reads.

    Checked and built once, here, and frozen: no attribute can be rebound
    and every array is read-only, so a cached model cannot drift from its
    weights.  Two models are equal only when they are the same object.
    """

    weights: WeightVector
    sparsity: int = field(init=False)
    _forced: np.ndarray = field(init=False, repr=False)
    _free: np.ndarray = field(init=False, repr=False)
    _esp: np.ndarray = field(init=False, repr=False)

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
        forced = np.flatnonzero(omega >= 1.0)
        free = np.flatnonzero((omega > 0.0) & (omega < 1.0))
        r = s_round - len(forced)
        if r < 0 or r > len(free):
            raise InvalidWeights("weights cannot produce supports of size S")
        if (len(free) + 1) * (r + 1) > MAX_ESP_ENTRIES:
            raise InvalidWeights(
                f"the support model needs a {len(free) + 1} x {r + 1} table, "
                f"more than {MAX_ESP_ENTRIES} entries"
            )
        with np.errstate(divide="ignore"):
            w_free = omega[free]
            log_odds = np.log(w_free) - np.log1p(-w_free)
        esp = _log_suffix_esp(log_odds, r)
        forced.flags.writeable = free.flags.writeable = esp.flags.writeable = False
        # past the frozen __setattr__
        vars(self).update(sparsity=s_round, _forced=forced, _free=free, _esp=esp)

    @property
    def dim(self) -> int:
        return len(self.weights)

    @property
    def _r(self) -> int:
        return self.sparsity - len(self._forced)


def _check_seed(seed, numpy_seeds: bool = True):
    """`seed`, checked: None, an integer >= 0 or, if `numpy_seeds`, a
    SeedSequence or Generator; anything else is a ConfigError (numpy's
    would be a ValueError or TypeError).  numpy.random is looked up at
    call time, so that importing avds does not load it."""
    if seed is None or (
        numpy_seeds and isinstance(seed, (np.random.SeedSequence, np.random.Generator))
    ):
        return seed
    return _check_count(seed, "a seed that is not None or a numpy seed")


def sample_supports(dist: SupportDistribution, n: int, seed=None) -> np.ndarray:
    """Draw n exact supports as a boolean (n, K) matrix; deterministic given seed.

    Row i reads the i-th row of `rng.random((n, R))`, one uniform per free
    pick (R = S minus the forced indices).  A count that is not an integer
    >= 0 is a ConfigError.
    """
    n = _check_count(n)
    rng = np.random.default_rng(_check_seed(seed))
    return _inverse_cdf_supports(dist, rng.random((n, dist._r)))


def _inverse_cdf_supports(dist: SupportDistribution, u: np.ndarray) -> np.ndarray:
    """Supports as a boolean (len(u), K) matrix, pick k of row i driven by u[i, k].

    Forced indices are set in every row.  The sequential scheme takes free
    index t, with r picks left, with probability
    p_r[t] = odds_t e_{r-1}(odds[t+1:]) / e_r(odds[t:]).  Since
    1 - p_r[t] = e_r(odds[t+1:]) / e_r(odds[t:]), the skip probabilities
    telescope: from position pos, the next pick t has
    P(t' <= t) = 1 - e_r(odds[t+1:]) / e_r(odds[pos:]).  By inversion, the
    next pick is the first t >= pos with E[t + 1, r] <= E[pos, r] + log u.
    Column r of the log-ESP table E never increases down the table, also in
    floating point (`logaddexp` is at least its larger argument), so one
    `searchsorted` per round serves every row: with c entries of the column
    at most the target, t = max(n_free - c, pos).  E[n_free - r + 1, r] = -inf
    stops the search at or before the last feasible index (the forced pick,
    and u = 0); the max keeps t at pos for u within rounding of 1.  The
    rounds count positions from the end, q = n_free - pos, so that
    n_free - t = min(c, q) is one call.
    """
    esp = dist._esp
    n_free = len(dist._free)
    descending = np.arange(n_free, -1, -1)  # sorts every column ascending
    ends = np.empty(u.shape[::-1], dtype=np.int64)  # n_free - t for pick k of row i at [k, i]
    q = np.full(len(u), n_free)  # n_free - pos
    with np.errstate(divide="ignore"):
        log_u = np.log(u.T)
    for k, r in enumerate(range(dist._r, 0, -1)):
        column = esp[:, r]
        target = column[::-1][q]  # E[pos, r]
        target += log_u[k]
        count = column.searchsorted(target, side="right", sorter=descending)
        np.minimum(count, q, out=ends[k])
        q = ends[k] - 1
    out = np.zeros((len(u), dist.dim), dtype=bool)
    out[:, dist._forced] = True
    out[np.arange(len(u)), dist._free[n_free - ends]] = True
    return out


def draw_signals(dist: SupportDistribution, n: int, seed=None) -> np.ndarray:
    """n signal vectors (n, K): rejective supports, iid +-1 magnitudes."""
    rng = np.random.default_rng(_check_seed(seed))
    masks = sample_supports(dist, n, seed=rng.integers(2**63))
    signs = rng.integers(0, 2, size=masks.shape) * 2 - 1
    return masks * signs.astype(float)
