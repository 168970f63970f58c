"""Independent oracles for the support model, test use only.

`_log_suffix_esp` (the row-by-row ESP table) is the kernel the vectorised
one replaced, copied verbatim; the avds table must reproduce it bit for
bit.  `inverse_cdf_supports` (one row and one pick at a time, by a linear
scan) is the inverse-CDF rule written out; the avds sampler must reproduce
every draw of it bit for bit.  `_sequential_supports` (one Python step per
free index, one uniform per free index) is the sequential scheme the
inverse-CDF sampler replaced, copied verbatim: it draws from the same law
on another stream.  It, `rejection_supports` (Bernoulli draws kept when
they have exactly S successes), `support_prob` (the closed form) and
`sequential_path_log_prob` (the sampler's path probability) check the
exact sampler's law.
"""

import numpy as np

from avds.errors import AvdsError, InvalidWeights
from avds.support_model import SupportDistribution


class RejectionCapExceeded(AvdsError):
    """Rejection sampler exceeded its retry budget."""


def _log_suffix_esp(log_odds: np.ndarray, r_max: int) -> np.ndarray:
    """Table E[i, j] = log e_j(odds[i:]) via the stable two-term recurrence."""
    n = len(log_odds)
    table = np.full((n + 1, r_max + 1), -np.inf)
    table[:, 0] = 0.0
    for i in range(n - 1, -1, -1):
        top = min(r_max, n - i)
        js = np.arange(1, top + 1)
        table[i, js] = np.logaddexp(table[i + 1, js], log_odds[i] + table[i + 1, js - 1])
    return table


def _sequential_supports(dist: SupportDistribution, u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill the free indices of `out` by the sequential scheme, row i driven by u[i].

    The rows are independent: each row's draws depend on its uniforms only.
    """
    esp = dist._esp
    log_odds = dist._log_odds
    n_free = len(dist._free)
    remaining = np.full(len(out), dist._r, dtype=np.int64)
    with np.errstate(invalid="ignore"):
        for t in range(n_free):
            active = remaining > 0
            if not active.any():
                break
            r = remaining
            # P(include index t | r left) = odds_t e_{r-1}(suffix) / e_r(suffix+t)
            log_p = log_odds[t] + esp[t + 1, np.maximum(r - 1, 0)] - esp[t, np.maximum(r, 1)]
            p = np.where(active, np.exp(np.minimum(log_p, 0.0)), 0.0)
            must = active & (n_free - t == r)  # as many slots as indices left
            include = (u[:, t] < p) | must
            out[include, dist._free[t]] = True
            remaining = remaining - include.astype(np.int64)
    return out


def inverse_cdf_supports(dist: SupportDistribution, u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill the free indices of `out` by the inverse-CDF rule, row i's pick k driven by u[i, k].

    With r picks left and the previous pick before position pos, the next
    pick is the first free index t >= pos with E[t + 1, r] <= E[pos, r] + log u,
    found by scanning t upwards from pos.
    """
    esp = dist._esp
    with np.errstate(divide="ignore"):
        log_u = np.log(u)
    for i in range(len(u)):
        pos = 0
        for k, r in enumerate(range(dist._r, 0, -1)):
            target = esp[pos, r] + log_u[i, k]
            t = pos
            while esp[t + 1, r] > target:
                t += 1
            out[i, dist._free[t]] = True
            pos = t + 1
    return out


def rejection_supports(
    dist: SupportDistribution, n: int, seed=None, rejection_cap: int = 10**6
) -> np.ndarray:
    """Draw n supports as a boolean (n, K) matrix; deterministic given seed.

    Draws independent Bernoulli(omega) vectors and keeps those with
    exactly S successes.
    """
    rng = np.random.default_rng(seed)
    omega = dist.weights.omega
    k_total = dist.dim
    out = np.zeros((n, k_total), dtype=bool)
    out[:, dist._forced] = True
    r_target = dist._r
    if r_target == 0:
        return out
    filled = 0
    raw = 0
    chunk = max(256, min(n * 4, 65536))
    probs = omega[dist._free]
    while filled < n:
        draws = rng.random((chunk, len(dist._free))) < probs
        raw += chunk
        good = draws[draws.sum(axis=1) == r_target]
        take = min(len(good), n - filled)
        if take:
            rows = np.arange(filled, filled + take)
            out[np.ix_(rows, dist._free)] = good[:take]
            filled += take
        if raw > rejection_cap * max(1, n):
            raise RejectionCapExceeded(
                f"acceptance too rare after {raw} Bernoulli draws"
            )
    return out


def support_prob(dist: SupportDistribution, support) -> float:
    """P(I) under the rejective model; 0 whenever |I| != S."""
    support = np.asarray(support, dtype=np.int64)
    if len(np.unique(support)) != len(support):
        raise InvalidWeights("support contains repeated indices")
    if len(support) != dist.sparsity:
        return 0.0
    omega = dist.weights.omega
    inside = np.zeros(dist.dim, dtype=bool)
    inside[support] = True
    if np.any(omega[support] <= 0.0):
        return 0.0
    if np.any((omega >= 1.0) & ~inside):
        return 0.0
    free_in = dist._free[inside[dist._free]]
    free_out = dist._free[~inside[dist._free]]
    log_p = (
        np.log(omega[free_in]).sum()
        + np.log1p(-omega[free_out]).sum()
        + dist.log_normalizer
    )
    return float(np.exp(log_p))


def sequential_path_log_prob(dist: SupportDistribution, support) -> float:
    """log-probability of `support` accumulated along the sequential path.

    Multiplying the per-index conditional inclusion/exclusion
    probabilities must reproduce support_prob exactly, which checks the
    sampler against the closed form.
    """
    support = np.asarray(support, dtype=np.int64)
    inside = np.zeros(dist.dim, dtype=bool)
    inside[support] = True
    if len(support) != dist.sparsity or np.any(~inside[dist._forced]):
        return -np.inf
    esp = dist._esp
    log_odds = dist._log_odds
    n_free = len(dist._free)
    r = dist._r
    total = 0.0
    for t in range(n_free):
        if r > 0:
            log_p = log_odds[t] + esp[t + 1, r - 1] - esp[t, r]
            p = min(np.exp(log_p), 1.0)
        else:
            p = 0.0
        if inside[dist._free[t]]:
            if p <= 0.0:
                return -np.inf
            total += np.log(p)
            r -= 1
        else:
            if p >= 1.0:
                return -np.inf
            total += np.log1p(-p)
    return total
