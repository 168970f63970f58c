"""Sampling densities over rows or blocks of the composite operator.

The adapted density weights each row/block k by
max{ ||B_k D_w B_k*||_2,2 , ||B_k* B_k||_inf,1 } and normalises; for
isolated rows the two terms reduce to a_k D_w a_k* and ||a_k||_inf^2.
Closed forms are available for vertical/horizontal line blocks of
separable 2D operators, and baseline densities (uniform, coherence,
polynomial decay) are provided for comparison experiments.

Coefficients with zero weight can never enter a support, so the
sup-norm term is always evaluated with those columns removed; this is
what makes the identity operator's density uniform on the set of
positive weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidPartition, InvalidSpec, InvalidWeights
from .support_model import WeightVector
from .transforms import (
    Measurement,
    OperatorSpec,
    RowVector,
    row_chunks,
    row_energies,
    rows_batch,
    separable_factor,
    signed_frequencies,
)

_MAX_BLOCK_ROWS = 4096


@dataclass
class Density:
    """Probability vector over rows or blocks plus its normaliser L."""

    pi: np.ndarray
    normalizer: float
    kind: str

    def __post_init__(self) -> None:
        self.pi = np.asarray(self.pi, dtype=float)
        if np.any(self.pi < -1e-15):
            raise InvalidSpec("density entries must be nonnegative")
        if abs(self.pi.sum() - 1.0) > 1e-9:
            raise InvalidSpec("density must sum to one")

    def __len__(self) -> int:
        return int(self.pi.size)


@dataclass
class BlockPartition:
    """Disjoint cover of {0..K-1} by measurement blocks."""

    blocks: list
    kind: str

    def __post_init__(self) -> None:
        self.blocks = [np.asarray(b, dtype=np.int64) for b in self.blocks]
        total = np.concatenate(self.blocks) if self.blocks else np.array([], np.int64)
        k = total.size
        seen = np.zeros(k, dtype=bool)
        if k == 0 or total.min() < 0 or total.max() >= k:
            raise InvalidPartition("blocks must cover exactly {0..K-1}")
        seen[total] = True
        if not seen.all() or len(np.unique(total)) != k:
            raise InvalidPartition("blocks must be disjoint and cover {0..K-1}")
        self.dim = k

    @property
    def m(self) -> int:
        return len(self.blocks)

    @classmethod
    def singletons(cls, k: int) -> "BlockPartition":
        return cls([np.array([i]) for i in range(k)], kind="singletons")

    @classmethod
    def vertical_lines(cls, side: int) -> "BlockPartition":
        """Grid columns: block k holds flat indices k*side .. (k+1)*side - 1.

        With column-major vectorisation these are the rows phi_k (x) phi of
        a separable operator, i.e. vertical lines of the frequency grid.
        """
        return cls(
            [np.arange(k * side, (k + 1) * side) for k in range(side)],
            kind="vertical_lines",
        )

    @classmethod
    def horizontal_lines(cls, side: int) -> "BlockPartition":
        """Grid rows: block k holds flat indices {k, k+side, k+2*side, ...}."""
        return cls(
            [np.arange(side) * side + k for k in range(side)],
            kind="horizontal_lines",
        )

    @classmethod
    def squares(cls, side: int, block_side: int) -> "BlockPartition":
        if side % block_side != 0:
            raise InvalidPartition("block side must divide the grid side")
        n = side // block_side
        blocks = []
        for bc in range(n):
            for br in range(n):
                rows = br * block_side + np.arange(block_side)
                cols = bc * block_side + np.arange(block_side)
                flat = (cols[:, None] * side + rows[None, :]).ravel()
                blocks.append(np.sort(flat))
        return cls(blocks, kind="squares")


@dataclass
class LevelsSummary:
    """Per-dyadic-level mass of the weights (1D) or its row-max variant (2D)."""

    masses: np.ndarray
    layout: str


def _dyadic_bands(n: int):
    """Bands {0}, {1}, {2,3}, {4..7}, ... covering 0..n-1."""
    bands = [np.array([0])]
    start = 1
    while start < n:
        bands.append(np.arange(start, 2 * start))
        start *= 2
    return bands


def levels_summary(weights: WeightVector, layout: str = "dyadic1d") -> LevelsSummary:
    omega = weights.omega
    if layout == "dyadic1d":
        n = omega.size
        if n & (n - 1):
            raise InvalidWeights("dyadic summary needs a power-of-two length")
        masses = np.array([omega[band].sum() for band in _dyadic_bands(n)])
        return LevelsSummary(masses=masses, layout=layout)
    if layout == "rowwise_dyadic2d":
        w = weights.matrix()
        side = w.shape[0]
        if side & (side - 1):
            raise InvalidWeights("dyadic summary needs a power-of-two side")
        masses = np.array(
            [w[:, band].sum(axis=1).max() for band in _dyadic_bands(side)]
        )
        return LevelsSummary(masses=masses, layout=layout)
    raise InvalidWeights(f"unknown layout {layout!r}")


# ----------------------------------------------------------------------
# block norms

def _rows_matrix(block_rows) -> np.ndarray:
    if isinstance(block_rows, np.ndarray):
        mat = block_rows
    else:
        mat = np.stack([r.entries if isinstance(r, RowVector) else r for r in block_rows])
    if mat.shape[0] > _MAX_BLOCK_ROWS:
        raise InvalidPartition(f"block with {mat.shape[0]} rows exceeds the dense limit")
    return mat


def block_gram_opnorm(block, weights: WeightVector) -> float:
    """Operator norm of B_k D_w B_k*, computed densely on the small Gram."""
    mat = _rows_matrix(block)
    omega = weights.omega
    if mat.shape[1] != omega.size:
        raise InvalidWeights("row length does not match the weight vector")
    m = mat * np.sqrt(omega)[None, :]
    gram = m @ m.conj().T
    gram = 0.5 * (gram + gram.conj().T)
    return float(np.linalg.eigvalsh(gram)[-1].real)


def block_inf1_norm(block, support=None) -> float:
    """Max absolute entry of B_k* B_k, optionally restricted to `support`.

    The K x K Gram is never materialised: its entries are scanned in
    column chunks of the (rows x K) block matrix.
    """
    mat = _rows_matrix(block)
    if support is not None:
        mat = mat[:, support]
    k = mat.shape[1]
    chunk = max(1, min(k, (1 << 22) // max(1, 16 * k)))
    best = 0.0
    conj = mat.conj().T  # (K, b)
    for start in range(0, k, chunk):
        part = conj[start : start + chunk] @ mat  # (chunk, K)
        best = max(best, float(np.abs(part).max()))
    return best


def _line_closed_form(phi: np.ndarray, w: np.ndarray, kind: str) -> np.ndarray:
    """Gram-term numerators for line blocks of a separable operator.

    vertical (grid columns, rows phi_k (x) phi):
        max_l sum_i |phi_{k,i}|^2 W[l, i]
    horizontal (grid rows, rows phi (x) phi_k):
        max_l sum_i |phi_{k,i}|^2 W[i, l]
    """
    energy = np.abs(phi) ** 2  # (side, side)
    if kind == "vertical_lines":
        return (energy @ w.T).max(axis=1)
    if kind == "horizontal_lines":
        return (energy @ w).max(axis=1)
    raise InvalidPartition("closed form only exists for line partitions")


def adapted_isolated(spec: OperatorSpec, weights: WeightVector) -> Density:
    """Adapted density over isolated rows: pi_k ~ max{a_k D_w a_k*, |a_k|_inf^2}.

    The sup-norm term is restricted to the support of the weights, so
    rows with no energy on possibly-active coefficients get probability
    zero (identity-operator special case).
    """
    omega = weights.omega
    if omega.size != spec.dim:
        raise InvalidWeights("weights do not match the operator dimension")
    # a column slice is a view; a boolean mask would copy the energies
    support = slice(None) if np.all(omega > 0) else omega > 0
    k_total = spec.dim
    if k_total <= 2048:
        energy = row_energies(spec)
        gram = energy @ omega
        infterm = energy[:, support].max(axis=1)
    else:
        gram = np.empty(k_total)
        infterm = np.empty(k_total)
        for idx, mat in row_chunks(spec):
            energy = np.abs(mat) ** 2
            gram[idx] = energy @ omega
            infterm[idx] = energy[:, support].max(axis=1)
    numer = np.maximum(gram, infterm)
    total = float(numer.sum())
    return Density(pi=numer / total, normalizer=total, kind="adapted_isolated")


def adapted_blocks(
    spec: OperatorSpec,
    partition: BlockPartition,
    weights: WeightVector,
    method: str = "auto",
) -> Density:
    """Adapted density over measurement blocks.

    method "generic" computes both norms densely from extracted rows;
    "closed_form_lines" uses the separable line identities (and must
    agree with generic); "auto" picks closed forms where they are exact
    and falls back to the generic path.
    """
    omega = weights.omega
    if partition.dim != spec.dim or omega.size != spec.dim:
        raise InvalidPartition("partition/weights do not match the operator")
    if partition.kind == "singletons" and method == "auto":
        iso = adapted_isolated(spec, weights)
        return Density(pi=iso.pi, normalizer=iso.normalizer, kind="adapted_blocks")
    if method == "closed_form_lines":
        phi = separable_factor(spec)
        if phi is None or partition.kind not in ("vertical_lines", "horizontal_lines"):
            raise InvalidPartition(
                "closed-form lines need a separable operator and a line partition"
            )
        gram_terms = _line_closed_form(phi, weights.matrix(), partition.kind)
        inf_terms = np.max(np.abs(phi) ** 2, axis=1)
        numer = np.maximum(gram_terms, inf_terms)
        total = float(numer.sum())
        return Density(numer / total, total, kind="adapted_blocks")

    gram_terms, inf_terms = block_norm_terms(spec, partition, weights, method=method)
    numer = np.maximum(gram_terms, inf_terms)
    total = float(numer.sum())
    return Density(numer / total, total, kind="adapted_blocks")


def block_norm_terms(
    spec: OperatorSpec,
    partition: BlockPartition,
    weights: WeightVector,
    method: str = "auto",
):
    """Per-block ||B_k D_w B_k*|| and ||B_k* B_k||_inf,1 arrays."""
    omega = weights.omega
    support = omega > 0
    masked = None if support.all() else support
    phi = separable_factor(spec)
    is_lines = partition.kind in ("vertical_lines", "horizontal_lines")
    use_product = method == "auto" and phi is not None and (
        is_lines or partition.kind == "squares"
    )
    gram_terms = np.empty(partition.m)
    inf_terms = np.empty(partition.m)
    for k, idx in enumerate(partition.blocks):
        mat = rows_batch(spec, idx)
        gram_terms[k] = block_gram_opnorm(mat, weights)
        if use_product:
            inf_terms[k] = _product_inf1(phi, idx, spec.side, masked)
        else:
            inf_terms[k] = block_inf1_norm(
                mat, support=None if masked is None else np.flatnonzero(masked)
            )
    return gram_terms, inf_terms


def _product_inf1(phi: np.ndarray, idx: np.ndarray, side: int, masked) -> float:
    """||B*B||_inf,1 for a product-set block of a separable operator.

    Flat indices col*side + row with {rows} x {cols} a product set give
    B = phi_C (x) phi_R, so the Gram max-entry factorises.
    """
    rows = np.unique(idx % side)
    cols = np.unique(idx // side)
    if len(rows) * len(cols) != len(idx):
        raise InvalidPartition("block is not a product set")
    if masked is not None:
        # fall back: masked sup-norm does not factorise
        return block_inf1_norm(
            np.kron(phi[cols], phi[rows]), support=np.flatnonzero(masked)
        )
    fr = phi[rows]
    fc = phi[cols]
    max_r = float(np.abs(fr.conj().T @ fr).max())
    max_c = float(np.abs(fc.conj().T @ fc).max())
    return max_r * max_c


def baseline_density(
    kind: str,
    spec: OperatorSpec,
    partition: BlockPartition | None = None,
    exponent: float = 2.5,
) -> Density:
    """Uniform, coherence-based or polynomial-decay comparison densities."""
    if partition is None:
        partition = BlockPartition.singletons(spec.dim)
    if kind == "uniform":
        m = partition.m
        return Density(np.full(m, 1.0 / m), float(m), kind="uniform")
    if kind == "coherence":
        if partition.kind == "singletons":
            if spec.dim <= 2048:
                numer = row_energies(spec).max(axis=1)
            else:
                numer = np.empty(spec.dim)
                for idx, mat in row_chunks(spec):
                    numer[idx] = (np.abs(mat) ** 2).max(axis=1)
        else:
            numer = np.array(
                [block_inf1_norm(rows_batch(spec, idx)) for idx in partition.blocks]
            )
        total = float(numer.sum())
        return Density(numer / total, total, kind="coherence")
    if kind == "polynomial":
        if not spec.is_2d or spec.measurement not in (
            Measurement.DFT2D,
            Measurement.HADAMARD2D,
        ):
            raise InvalidSpec("polynomial density needs a 2D frequency grid")
        if partition.kind != "singletons":
            raise InvalidPartition("polynomial density is defined on isolated rows")
        side = spec.side
        f = signed_frequencies(side).astype(float)
        rad2 = f[None, :] ** 2 + f[:, None] ** 2  # [row, col] grid
        rad2[0, 0] = 2.0  # DC takes the value of the (1,1) cell
        numer = (rad2 ** (-exponent)).T.ravel()  # column-major flatten
        total = float(numer.sum())
        return Density(numer / total, total, kind="polynomial")
    raise InvalidSpec(f"unknown baseline density kind {kind!r}")
