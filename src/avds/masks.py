"""Measurement-mask drawing from a sampling density, and block expansion.

Two modes: the theorem's i.i.d.-with-replacement model (draws recorded
with multiplicities) and the practical distinct mode used by the
experiments (the i.i.d. draws with repeats skipped until m distinct atoms
are collected, i.e. successive sampling without replacement).  The i.i.d.
mode is inverse-CDF on the cumulative table with ties broken toward the
lower index, in one helper, `_iid_draw`, shared by `draw_mask` and by
`harness.diagnostics` (with its table built once per call).  Distinct
mode draws the same law in one pass with exponential keys (Efraimidis &
Spirakis, 2006): atom k gets log E_k - log pi_k with E_k ~ Exp(1), and the
m smallest keys are kept, so no budget up to the positive-mass atoms
needs more than one key per atom.  E_k is drawn for every entry of pi,
so densities keyed by one seed share each atom's E_k whatever their zero
sets, and equal densities draw equal masks.  A `Density` is checked when
it is built and cannot change after, so both modes read it as given.
Every partition, the singletons included, expands through one gather,
`BlockPartition.block_rows`; an expanded mask covers `mask.size / K` of
the rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import BlockPartition, Density
from .errors import (
    ConfigError,
    DimensionMismatch,
    InfeasibleBudget,
    InvalidPartition,
    _check_indices,
)
from .support_model import _check_count, _check_seed
from .transforms import MAX_DIM

IID = "iid"
DISTINCT = "distinct"


@dataclass
class Mask:
    """Drawn measurement index set over rows or blocks."""

    indices: np.ndarray          # sorted unique atom indices
    multiplicities: np.ndarray   # draw counts per index (all 1 in distinct mode)
    n_draws: int = 0             # i.i.d. draws; keys kept (positive-mass atoms) if distinct

    def __post_init__(self) -> None:
        indices = _check_indices(self.indices, "mask indices", DimensionMismatch)
        mult = np.asarray(self.multiplicities)
        if mult.shape != indices.shape or mult.dtype.kind not in "iuf" or not np.all(mult >= 1):
            raise DimensionMismatch("mask multiplicities must be counts >= 1, one per index")
        if not np.all(np.isfinite(mult)) or np.any(mult % 1 != 0):
            raise DimensionMismatch("mask multiplicities must be whole counts")
        self.indices = indices.astype(np.int64)
        self.multiplicities = mult.astype(np.int64)

    @property
    def size(self) -> int:
        return int(self.indices.size)


def _categorical_table(density: Density):
    """The i.i.d. table: positive-mass atoms and their normalised cumulative mass."""
    atoms = np.flatnonzero(density.pi > 0)
    cum = np.cumsum(density.pi[atoms])
    cum /= cum[-1]
    return atoms, cum


def _iid_draw(atoms: np.ndarray, cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The atoms that uniforms `u` (any shape) draw from the table, one per uniform."""
    order = np.argsort(u, axis=None)  # searchsorted runs about 3x faster on sorted keys
    drawn = np.empty(u.shape, dtype=np.int64)
    np.put(drawn, order, np.searchsorted(cum, np.take(u, order), side="left"))
    return atoms[drawn]


def draw_mask(density: Density, budget: int, mode: str = DISTINCT, seed=None) -> Mask:
    """Draw `budget` atoms from the density; deterministic given seed.

    A budget that is not an integer >= 1 is an `InfeasibleBudget`.  An
    i.i.d. budget takes one uniform per draw, so it is bounded by
    `transforms.MAX_DIM`, as every K-vector is.
    """
    if mode not in (IID, DISTINCT):
        raise ConfigError(f"unknown mask mode {mode!r}")
    budget = _check_count(budget, "a mask budget", 1, InfeasibleBudget)
    if mode == IID and budget > MAX_DIM:
        raise InfeasibleBudget(f"an i.i.d. budget must be <= {MAX_DIM}, got {budget}")
    rng = np.random.default_rng(_check_seed(seed))
    if mode == IID:
        counts = np.bincount(_iid_draw(*_categorical_table(density), rng.random(budget)))
        return Mask(np.flatnonzero(counts), counts[counts > 0], n_draws=budget)
    atoms = np.flatnonzero(density.pi > 0)
    if budget > atoms.size:
        raise InfeasibleBudget(
            f"budget {budget} exceeds the {atoms.size} atoms with positive mass"
        )
    keys = np.log(rng.standard_exponential(density.pi.size)[atoms]) - np.log(density.pi[atoms])
    chosen = np.sort(atoms[np.argpartition(keys, budget - 1)[:budget]])
    return Mask(chosen, np.ones(budget, dtype=np.int64), n_draws=atoms.size)


def expand_blocks(mask: Mask, partition: BlockPartition) -> Mask:
    """Sorted rows of the mask's (disjoint) blocks, each with its block's multiplicity."""
    if mask.indices.size and (mask.indices.min() < 0 or mask.indices.max() >= partition.m):
        raise InvalidPartition("mask indexes blocks outside the partition")
    rows, mult = partition.block_rows(mask.indices, mask.multiplicities)
    order = np.argsort(rows)
    return Mask(rows[order], mult[order], n_draws=mask.n_draws)
