"""Measurement-mask drawing from a sampling density.

Two modes: the theorem's i.i.d.-with-replacement model (draws recorded
with multiplicities) and the practical distinct-until-budget mode used by
the experiments (categorical draws, repeats skipped, until m distinct
atoms are collected).  Categorical sampling is inverse-CDF on the
cumulative table with ties broken toward the lower index.  Distinct mode
draws in chunks and keeps, per chunk, the first occurrence of each new
atom in draw order, up to the budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import BlockPartition, Density
from .errors import InfeasibleBudget, InvalidPartition, UnnormalizedDensity

IID = "iid"
DISTINCT = "distinct"
# DISTINCT mode raises InfeasibleBudget after this many draws.  Collecting
# the last atoms takes about 1 / min(pi) draws, unbounded as pi -> 0; the
# cap is about 4 s of drawing (2-core x86-64), 150x the most any test uses.
MAX_DISTINCT_DRAWS = 1 << 26


@dataclass
class Mask:
    """Drawn measurement index set over rows or blocks."""

    indices: np.ndarray          # sorted unique atom indices
    multiplicities: np.ndarray   # draw counts per index (all 1 in distinct mode)
    mode: str
    seed: object = None
    n_draws: int = 0
    covered_fraction: float | None = None

    def __post_init__(self) -> None:
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.multiplicities = np.asarray(self.multiplicities, dtype=np.int64)

    @property
    def size(self) -> int:
        return int(self.indices.size)


def _categorical_table(density: Density):
    pi = density.pi
    if np.any(pi < 0) or abs(pi.sum() - 1.0) > 1e-9:
        raise UnnormalizedDensity("density must be nonnegative and sum to 1")
    atoms = np.flatnonzero(pi > 0)
    cum = np.cumsum(pi[atoms])
    cum /= cum[-1]
    return atoms, cum


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
        return Mask(indices, counts, mode=IID, seed=seed, n_draws=budget)
    if mode != DISTINCT:
        raise InfeasibleBudget(f"unknown mask mode {mode!r}")
    if budget > atoms.size:
        raise InfeasibleBudget(
            f"budget {budget} exceeds the {atoms.size} atoms with positive mass"
        )
    seen = np.zeros(len(density), dtype=bool)
    picked = draws = 0
    chunk = max(4 * budget, 256)
    while picked < budget:
        u = rng.random(chunk)
        drawn = atoms[np.searchsorted(cum, u, side="left")]
        # first occurrence of each atom not seen before, in draw order
        atom, first = np.unique(drawn, return_index=True)
        first = np.sort(first[~seen[atom]])[: budget - picked]
        seen[drawn[first]] = True
        picked += first.size
        draws += chunk if picked < budget else int(first[-1]) + 1
        if picked < budget and draws >= MAX_DISTINCT_DRAWS:
            raise InfeasibleBudget(
                f"{picked} of {budget} distinct atoms after {draws} draws; the "
                "remaining atoms are too unlikely to collect"
            )
    return Mask(
        np.flatnonzero(seen),
        np.ones(budget, dtype=np.int64),
        mode=DISTINCT,
        seed=seed,
        n_draws=draws,
    )


def expand_blocks(mask: Mask, partition: BlockPartition) -> Mask:
    """Flatten a block-index mask to row indices via the partition.

    Distinct mode takes the union of the drawn blocks (disjoint, so no
    duplicates); i.i.d. mode propagates each block's multiplicity to its
    rows.  The covered fraction of the K rows is recorded on the result.
    """
    if mask.indices.size and mask.indices.max() >= partition.m:
        raise InvalidPartition("mask indexes blocks outside the partition")
    flats = []
    mults = []
    for idx, count in zip(mask.indices, mask.multiplicities):
        block = partition.blocks[idx]
        flats.append(block)
        mults.append(np.full(block.size, count, dtype=np.int64))
    flat = np.concatenate(flats) if flats else np.array([], dtype=np.int64)
    mult = np.concatenate(mults) if mults else np.array([], dtype=np.int64)
    order = np.argsort(flat)
    covered = float(flat.size) / partition.dim
    return Mask(
        flat[order],
        mult[order],
        mode=mask.mode,
        seed=mask.seed,
        n_draws=mask.n_draws,
        covered_fraction=covered,
    )
