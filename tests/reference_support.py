"""The support-model kernels that the vectorised ones replaced, kept as the oracle.

`_log_suffix_esp` (the row-by-row ESP table) and `_sequential_supports`
(one Python step per free index) are copied verbatim.  The avds versions
must reproduce the table and every draw bit for bit.
"""

import numpy as np

from avds.support_model import SupportDistribution


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
