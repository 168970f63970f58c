"""The per-draw DISTINCT mask loop, kept as the oracle of the distinct law.

`draw_mask` is the original loop, less the `Mask` fields that were since
dropped: i.i.d. draws with repeats skipped until the budget is met.  The
exponential keys of `avds.masks.draw_mask` draw the same law from another
stream, so the two are compared in distribution (tests/test_masks.py
checks both against the exact successive-sampling law).  Its IID branch,
`np.unique` on the drawn atoms, is the oracle of the shared i.i.d. draw,
seed for seed.

`reference_expand_blocks` is the per-block expansion loop, less the
`covered_fraction` it used to record: the oracle of
`avds.density.BlockPartition.block_rows` and `expand_blocks`, index for
index.
"""

import numpy as np

from avds.density import BlockPartition, Density
from avds.errors import InfeasibleBudget, InvalidPartition
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



def reference_expand_blocks(mask: Mask, partition: BlockPartition) -> Mask:
    """Flatten a block-index mask to row indices via the partition, block by block."""
    if mask.indices.size and (mask.indices.min() < 0 or mask.indices.max() >= partition.m):
        raise InvalidPartition("mask indexes blocks outside the partition")
    flats = []
    mults = []
    for idx, count in zip(mask.indices, mask.multiplicities):
        block = partition.table[idx, : partition.sizes[idx]]
        flats.append(block)
        mults.append(np.full(block.size, count, dtype=np.int64))
    flat = np.concatenate(flats) if flats else np.array([], dtype=np.int64)
    mult = np.concatenate(mults) if mults else np.array([], dtype=np.int64)
    order = np.argsort(flat)
    return Mask(flat[order], mult[order], n_draws=mask.n_draws)
