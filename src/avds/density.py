"""Sampling densities over rows or blocks of the composite operator.

The adapted density weights each block k of measurement rows by
max{ ||B_k D_w B_k*||_2,2 , ||B_k* B_k||_inf,1 } and normalises; isolated
rows are the blocks of one row, where the two terms reduce to
a_k D_w a_k* and ||a_k||_inf^2.  Baseline densities (uniform, coherence,
polynomial decay) are provided for comparison experiments.

Coefficients with zero weight can never enter a support, so the
sup-norm term is always evaluated with those columns removed; this is
what makes the identity operator's density uniform on the set of
positive weights.

Every density (adapted, and coherence as the sup term at all-ones
weights) reads its terms from one routine, `_norm_terms` behind
`block_norm_terms`, which fills each block's terms from three sources in
turn:

- on a separable operator A0 = phi (x) phi a whole grid column or row
  takes both terms in closed form from phi; `_grid_lines` finds them in
  one pass over the blocks of `side` indices;
- with energy classes (`transforms.energy_classes`: DFT with any wavelet,
  Hadamard with Haar) one column per subband gives the table
  E[c, j] = |a_{j,l}|^2 of any column l in class c, as |u|^2 (x) |v|^2
  from `transforms.column_pairs`, the one reader of A0's columns (in 2D
  a gather from the cached per-axis table, no transform).  A block's sup
  term is its largest column energy on the positive weights, the max over
  live classes of the sum of E over the block's rows; a one-row block's
  Gram term is the class weights times E at its row;
- `_dense_terms` gives the terms still missing from the extracted rows
  of their blocks, blocks of one size in stacks: the one fallback and the
  oracle of the other two.  B_k* B_k is positive semidefinite, so its
  largest entry on the positive-weight coefficients is its largest
  diagonal entry there: the sup term is the block's largest column energy.

`_norm_terms` keeps its last two results, keyed by content (the spec, the
partition's table and sizes, the weights' bytes and whether Gram terms are
asked for), and hands out copies.  So a run's density, the thresholds of
`harness.diagnostics` and every budget of `avds diagnose` share one build,
and an experiment's adapted and coherence densities keep one each.  On
isolated rows an entry's key and terms take 40 bytes per row, 160 kB at
K = 4096.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidPartition, InvalidSpec, InvalidWeights
from .errors import _check_count, _check_indices, _check_real, _check_reals
from .support_model import WeightVector
from .transforms import (
    MAX_DIM,
    Measurement,
    OperatorSpec,
    column_pairs,
    energy_classes,
    rows_batch,
    separable_factor,
    signed_frequencies,
)

_MAX_BLOCK_ROWS = 4096
_POLYNOMIAL_EXPONENT = 2.5


@dataclass
class Density:
    """Probability vector over rows or blocks plus its normaliser L."""

    pi: np.ndarray
    normalizer: float

    def __post_init__(self) -> None:
        self.pi = _check_reals(self.pi, "density entries", InvalidSpec)
        if self.pi.ndim != 1:
            raise InvalidSpec(f"a density is a 1D vector, got shape {self.pi.shape}")
        if not np.all(np.isfinite(self.pi)):
            raise InvalidSpec("density entries must be finite")
        if np.any(self.pi < -1e-15):
            raise InvalidSpec("density entries must be nonnegative")
        if abs(self.pi.sum() - 1.0) > 1e-9:
            raise InvalidSpec("density must sum to one")
        if not 0 < _check_real(self.normalizer, "the normalizer", InvalidSpec) < np.inf:
            raise InvalidSpec(f"the normalizer must be positive and finite, got {self.normalizer}")

    def __len__(self) -> int:
        return int(self.pi.size)


class BlockPartition:
    """Disjoint cover of {0..K-1} by measurement blocks.

    Built from a list of integer index arrays, or from a 2D integer array
    holding one equal-sized block per row.  Either is stored one way:
    `table`, whose row k holds block k's indices and is padded with K after
    its `sizes[k]` entries, so `table[table < K]` lists the blocks one after
    another.
    """

    def __init__(self, blocks, kind: str):
        if isinstance(blocks, np.ndarray) and blocks.ndim == 2:
            sizes = np.full(blocks.shape[0], blocks.shape[1], dtype=np.int64)
            blocks = [blocks.ravel()]
        else:
            blocks = [np.asarray(b) for b in blocks]
            sizes = np.array([b.size for b in blocks], dtype=np.int64)
        if np.any(sizes == 0):
            raise InvalidPartition("every block must hold at least one index")
        for b in blocks:
            _check_indices(b, "every block", InvalidPartition)
        rows = np.concatenate(blocks or [np.array([], np.int64)]).astype(np.int64, copy=False)
        k = rows.size
        seen = np.zeros(k, dtype=bool)
        if k == 0 or rows.min() < 0 or rows.max() >= k:
            raise InvalidPartition("blocks must cover exactly {0..K-1}")
        seen[rows] = True
        # K indices that reach all K values are also pairwise distinct
        if not seen.all():
            raise InvalidPartition("blocks must be disjoint and cover {0..K-1}")
        # K non-empty blocks hold one row each; isolated-row code reads block k as row k
        if sizes.size == k and not np.array_equal(rows, np.arange(k)):
            raise InvalidPartition("one-row blocks must be [0], [1], ..., [K-1]")
        width = int(sizes.max())
        if sizes.size * width > MAX_DIM:  # the table is bounded as every K-vector is
            raise InvalidPartition(f"blocks padded to {width} rows exceed {MAX_DIM} table entries")
        self.table = np.full((sizes.size, width), k)
        self.table[np.arange(width) < sizes[:, None]] = rows
        self.sizes, self.dim, self.kind = sizes, k, kind

    @property
    def m(self) -> int:
        return int(self.sizes.size)

    def block_rows(self, block_ids, *per_block):
        """Rows of blocks `block_ids` (in range), in order; each per-block value once per row."""
        rows = self.table[block_ids]
        return (rows[rows < self.dim], *(np.repeat(v, self.sizes[block_ids]) for v in per_block))

    @classmethod
    def singletons(cls, k: int) -> "BlockPartition":
        k = _bounded(k, "K", 1)
        return cls(np.arange(k).reshape(k, 1), kind="singletons")

    @classmethod
    def vertical_lines(cls, side: int) -> "BlockPartition":
        """Grid columns: block k holds flat indices k*side .. (k+1)*side - 1.

        With column-major vectorisation these are the rows phi_k (x) phi of
        a separable operator, i.e. vertical lines of the frequency grid.
        """
        side = _bounded(side, "grid side", 2)
        return cls(np.arange(side * side).reshape(side, side), kind="vertical_lines")

    @classmethod
    def horizontal_lines(cls, side: int) -> "BlockPartition":
        """Grid rows: block k holds flat indices {k, k+side, k+2*side, ...}."""
        side = _bounded(side, "grid side", 2)
        return cls(np.arange(side * side).reshape(side, side).T, kind="horizontal_lines")

    @classmethod
    def squares(cls, side: int, block_side: int) -> "BlockPartition":
        """Squares of block_side^2 indices, column-major over the grid, each in increasing order."""
        side = _bounded(side, "grid side", 2)
        block_side = _check_count(block_side, "block side", 1, InvalidPartition)
        if block_side > side or side % block_side:
            raise InvalidPartition(f"block side {block_side} must lie in [1, {side}] and divide it")
        n = side // block_side
        # grid[c, r] = c*side + r; square (bc, br) is grid[bc*b : .., br*b : ..]
        grid = np.arange(side * side).reshape(n, block_side, n, block_side)
        return cls(grid.transpose(0, 2, 1, 3).reshape(n * n, -1), kind=f"squares:{block_side}")


def _bounded(n, what: str, power: int) -> int:
    """`n` as an int >= 1 whose K = n**power is at most `transforms.MAX_DIM`,
    checked before anything is allocated."""
    n = _check_count(n, what, 1, InvalidPartition)
    if n**power > MAX_DIM:
        raise InvalidPartition(f"{n**power} indices exceed the limit K <= {MAX_DIM}")
    return n


# ----------------------------------------------------------------------
# block norms

def _line_closed_form(phi: np.ndarray, w: np.ndarray) -> np.ndarray:
    """terms[axis, term, line] of the line blocks of A0 = phi (x) phi.

    Grid column c (axis 0) holds the rows phi_c (x) phi: B D_w B* =
    phi diag(v) phi* with v_l = sum_i |phi_{c,i}|^2 W[l, i], of norm max_l v_l
    for a unitary phi (term 0), and B* B = (phi_c* phi_c) (x) I, whose largest entry on
    positive weights is max |phi_{c,i}|^2 over the columns i of W holding a
    positive weight (term 1).  Grid row r (axis 1) swaps the axes of W.
    """
    energy = np.abs(phi) ** 2  # (side, side)
    live = w > 0
    return np.array(
        [
            [(energy @ w.T).max(axis=1), energy[:, live.any(axis=0)].max(axis=1)],
            [(energy @ w).max(axis=1), energy[:, live.any(axis=1)].max(axis=1)],
        ]
    )


def _positive(spec: OperatorSpec, omega: np.ndarray) -> np.ndarray:
    """omega > 0, after checking that omega fits `spec` and has a positive entry."""
    if omega.size != spec.dim:
        raise InvalidWeights("weights do not match the operator dimension")
    positive = omega > 0
    if not positive.any():
        raise InvalidWeights("weights need at least one positive entry")
    return positive


def _normalised(numer: np.ndarray) -> Density:
    total = float(numer.sum())
    return Density(numer / total, total)


def adapted_isolated(spec: OperatorSpec, weights: WeightVector) -> Density:
    """Adapted density over isolated rows: pi_k ~ max{a_k D_w a_k*, |a_k|_inf^2}.

    The sup-norm term is restricted to the support of the weights, so
    rows with no energy on possibly-active coefficients get probability
    zero (identity-operator special case).
    """
    return adapted_blocks(spec, BlockPartition.singletons(spec.dim), weights)


def adapted_blocks(spec: OperatorSpec, partition: BlockPartition, weights: WeightVector) -> Density:
    """Adapted density over measurement blocks, from `block_norm_terms`."""
    return _normalised(np.maximum(*block_norm_terms(spec, partition, weights)))


def _grid_lines(partition: BlockPartition, side: int) -> tuple[np.ndarray, np.ndarray]:
    """Per block (axis, line): (0, c) for all of grid column c, (1, r) for grid row r, else -1s."""
    axis, line = np.full((2, partition.m), -1)
    ids = np.flatnonzero(partition.sizes == side)
    idx = partition.table[ids, :side]
    # rows first, so that a block that is both (on a 1 x 1 grid) counts as a column
    for a, coord in ((1, idx % side), (0, idx // side)):
        full = np.all(coord == coord[:, :1], axis=1)
        axis[ids[full]], line[ids[full]] = a, coord[full, 0]
    return axis, line


def block_norm_terms(spec: OperatorSpec, partition: BlockPartition, weights: WeightVector):
    """Per-block arrays ||B_k D_w B_k*||_2,2 and ||B_k* B_k||_inf,1.

    The sup term runs over the positive-weight coefficients only; each
    block takes its terms from the sources in the module notes.
    """
    return tuple(_norm_terms(spec, partition, weights, gram=True))


# content key -> terms of the last two `_norm_terms` results, oldest first
_TERMS_MEMO: dict = {}


def _norm_terms(spec: OperatorSpec, partition: BlockPartition, weights: WeightVector, gram: bool):
    """terms[0] the Gram terms (NaN unless `gram`) and terms[1] the sup terms, per block.

    The last two results are kept, keyed by the content they depend on, and
    handed out as copies.
    """
    if partition.dim != spec.dim:
        raise InvalidPartition("partition does not match the operator dimension")
    table, omega = partition.table, np.asarray(weights.omega, dtype=float)
    key = (spec, table.shape, table.tobytes(), partition.sizes.tobytes(), omega.tobytes(), gram)
    terms = _TERMS_MEMO.pop(key, None)
    if terms is None:
        terms = _build_terms(spec, partition, weights, gram)
    _TERMS_MEMO[key] = terms
    if len(_TERMS_MEMO) > 2:
        del _TERMS_MEMO[next(iter(_TERMS_MEMO))]
    return terms.copy()


def _build_terms(spec: OperatorSpec, partition: BlockPartition, weights: WeightVector, gram: bool):
    """`_norm_terms` without the memo: each block's terms from the sources in the module notes."""
    omega = weights.omega
    positive = _positive(spec, omega)
    terms = np.full((2, partition.m), np.nan)
    phi = separable_factor(spec)
    if phi is not None:
        axis, line = _grid_lines(partition, spec.side)
        lines = axis >= 0
        if lines.any():
            terms[:, lines] = _line_closed_form(phi, weights.matrix())[axis[lines], :, line[lines]].T
    labels = energy_classes(spec)
    if labels is not None and np.isnan(terms[1]).any():
        u, v = column_pairs(spec, np.unique(labels, return_index=True)[1])
        energy = (np.abs(u[:, :, None] * v[:, None, :]) ** 2).reshape(len(u), spec.dim)
        live = np.bincount(labels, weights=positive) > 0
        table = partition.table
        starts = np.cumsum(partition.sizes) - partition.sizes  # of each block in the flat order
        sums = np.add.reduceat(energy[live][:, table[table < spec.dim]], starts, axis=1)
        terms[1] = np.where(np.isnan(terms[1]), sums.max(axis=0), terms[1])
        if gram:
            one_row = np.isnan(terms[0]) & (partition.sizes == 1)
            row_gram = np.bincount(labels, weights=omega) @ energy
            terms[0, one_row] = row_gram[partition.table[one_row, 0]]
    rest = np.flatnonzero(np.isnan(terms[0 if gram else 1 :]).any(axis=0))
    if rest.size:
        dense = np.array(_dense_terms(spec, partition, rest, weights, gram))
        terms[:, rest] = np.where(np.isnan(terms[:, rest]), dense, terms[:, rest])
    return terms


def _dense_terms(
    spec: OperatorSpec, partition: BlockPartition, block_ids, weights: WeightVector, gram=True
):
    """Both terms of the blocks `block_ids` from their extracted rows B_k.

    The one fallback of `block_norm_terms` and the oracle of its other
    sources.  The Gram term (NaN unless `gram`) is the largest eigenvalue
    of B_k D_w B_k*.
    B_k* B_k is positive semidefinite, so |(B*B)_{l,l'}| <= max((B*B)_{l,l},
    (B*B)_{l',l'}): the sup term is the block's largest column energy
    sum_{j in B_k} |a_{j,l}|^2 over the l with w_l > 0.  Blocks of one size
    run together, in stacks of about 2^16 row entries, which keeps the
    passes over a stack in cache.
    """
    omega = weights.omega
    live = _positive(spec, omega).astype(float)  # a 0/1 factor: energies are >= 0
    block_ids = np.asarray(block_ids, dtype=np.int64)
    sizes = partition.sizes[block_ids]
    if sizes.max(initial=0) > _MAX_BLOCK_ROWS:
        raise InvalidPartition(f"block with {sizes.max()} rows exceeds the dense limit")
    terms = np.full((2, block_ids.size), np.nan)
    for size in np.unique(sizes):
        group = np.flatnonzero(sizes == size)
        n = max(1, (1 << 16) // int(size * spec.dim))
        for stack in np.split(group, np.arange(n, group.size, n)):
            rows = partition.table[block_ids[stack], :size]
            mat = rows_batch(spec, rows.ravel()).reshape(stack.size, size, spec.dim)
            conj = mat.conj()
            if gram:
                terms[0, stack] = np.linalg.eigvalsh((mat * omega) @ conj.swapaxes(1, 2))[:, -1]
            terms[1, stack] = np.einsum("nbk,nbk,k->nk", mat, conj, live).real.max(axis=1)
    return terms[0], terms[1]


def baseline_density(
    kind: str, spec: OperatorSpec, partition: BlockPartition | None = None
) -> Density:
    """Uniform, coherence-based or polynomial-decay comparison densities."""
    if partition is None:
        partition = BlockPartition.singletons(spec.dim)
    if kind == "uniform":
        m = partition.m
        return Density(np.full(m, 1.0 / m), float(m))
    if kind == "coherence":
        ones = WeightVector.from_omega(np.ones(spec.dim))
        return _normalised(_norm_terms(spec, partition, ones, gram=False)[1])
    if kind == "polynomial":
        if not spec.is_2d or spec.measurement not in (
            Measurement.DFT2D,
            Measurement.HADAMARD2D,
        ):
            raise InvalidSpec("polynomial density needs a 2D frequency grid")
        if partition.m != partition.dim:
            raise InvalidPartition("polynomial density is defined on isolated rows")
        side = spec.side
        f = signed_frequencies(side).astype(float)
        rad2 = f[None, :] ** 2 + f[:, None] ** 2  # [row, col] grid
        rad2[0, 0] = 2.0  # DC takes the value of the (1,1) cell
        return _normalised((rad2 ** (-_POLYNOMIAL_EXPONENT)).T.ravel())  # column-major
    raise InvalidSpec(f"unknown baseline density kind {kind!r}")
