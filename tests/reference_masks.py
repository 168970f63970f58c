"""The per-draw DISTINCT mask loop that the chunked selection replaced, kept as the oracle.

`draw_mask` is copied verbatim, less the `Mask` fields that were since
dropped; `avds.masks.draw_mask` must return the same indices,
multiplicities and n_draws for every seed.  Its IID branch, `np.unique`
on the drawn atoms, is the oracle of the shared i.i.d. draw.
"""

import numpy as np

from avds.density import Density
from avds.errors import InfeasibleBudget
from avds.masks import DISTINCT, IID, Mask, _categorical_table


def draw_mask(density: Density, budget: int, mode: str = DISTINCT, seed=None) -> Mask:
    """Draw `budget` atoms from the density; deterministic given seed."""
    if budget < 1:
        raise InfeasibleBudget("budget must be >= 1")
    atoms, cum = _categorical_table(density)
    rng = np.random.default_rng(seed)
    if mode == IID:
        u = rng.random(budget)
        drawn = atoms[np.searchsorted(cum, u, side="left")]
        indices, counts = np.unique(drawn, return_counts=True)
        return Mask(indices, counts, n_draws=budget)
    if mode != DISTINCT:
        raise InfeasibleBudget(f"unknown mask mode {mode!r}")
    if budget > atoms.size:
        raise InfeasibleBudget(
            f"budget {budget} exceeds the {atoms.size} atoms with positive mass"
        )
    seen = np.zeros(len(density), dtype=bool)
    picked: list[int] = []
    draws = 0
    chunk = max(4 * budget, 256)
    while len(picked) < budget:
        u = rng.random(chunk)
        drawn = atoms[np.searchsorted(cum, u, side="left")]
        for idx in drawn:
            draws += 1
            if not seen[idx]:
                seen[idx] = True
                picked.append(int(idx))
                if len(picked) == budget:
                    break
    return Mask(
        np.sort(np.array(picked, dtype=np.int64)),
        np.ones(budget, dtype=np.int64),
        n_draws=draws,
    )

