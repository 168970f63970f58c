"""Reference block-norm terms, test use only.

These are the routines `avds.density._dense_terms` replaced: the Gram term
from the dense Gram of each block, the sup term from a chunked scan of
B_k* B_k (or its factorised form on product-set blocks of a separable
operator), and the isolated-row terms from all K rows streamed in chunks.
`reference_dense_terms` is the former `_dense_terms`.

The grid partitions as lists built one block per Python iteration, and the
per-block grid-line scan `_grid_line`, are the oracles of the reshaped
`BlockPartition` constructors and of `density._grid_lines`.
"""

from __future__ import annotations

import numpy as np

from avds.density import _positive
from avds.errors import InvalidPartition, InvalidWeights
from avds.support_model import WeightVector
from avds.transforms import OperatorSpec, rows_batch

_MAX_BLOCK_ROWS = 4096


def row_chunks(spec: OperatorSpec, chunk: int | None = None):
    """Yield (indices, rows) covering all K rows in index order."""
    k_total = spec.dim
    if chunk is None:
        chunk = max(64, min(k_total, (1 << 24) // (16 * k_total)))
    for start in range(0, k_total, chunk):
        idx = np.arange(start, min(start + chunk, k_total))
        yield idx, rows_batch(spec, idx)


def _rows_matrix(block) -> np.ndarray:
    mat = np.asarray(block)
    if mat.shape[0] > _MAX_BLOCK_ROWS:
        raise InvalidPartition(f"block with {mat.shape[0]} rows exceeds the dense limit")
    return mat


def _block_gram_opnorm(block, weights: WeightVector) -> float:
    """Operator norm of B_k D_w B_k*, computed densely on the small Gram."""
    mat = _rows_matrix(block)
    omega = weights.omega
    if mat.shape[1] != omega.size:
        raise InvalidWeights("row length does not match the weight vector")
    m = mat * np.sqrt(omega)[None, :]
    gram = m @ m.conj().T
    gram = 0.5 * (gram + gram.conj().T)
    return float(np.linalg.eigvalsh(gram)[-1].real)


def _block_inf1_norm(block, support=None) -> float:
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


def _streamed_terms(spec: OperatorSpec, omega: np.ndarray):
    """Both terms of every isolated row from all K rows, a chunk of rows at a time."""
    # a column slice is a view; a boolean mask would copy the energies
    support = slice(None) if np.all(omega > 0) else omega > 0
    gram = np.empty(spec.dim)
    infterm = np.empty(spec.dim)
    for idx, mat in row_chunks(spec):
        energy = np.abs(mat) ** 2
        gram[idx] = energy @ omega
        infterm[idx] = energy[:, support].max(axis=1)
    return gram, infterm


def reference_dense_terms(spec: OperatorSpec, blocks, weights: WeightVector, phi=None):
    """Both terms of every block from its extracted rows B_k.

    The fallback of `block_norm_terms` and the oracle of its closed forms.
    Given the separable factor phi and all-positive weights, the sup term of
    a product-set block factorises (`_product_inf1`).
    """
    positive = _positive(spec, weights.omega)
    support = None if positive.all() else np.flatnonzero(positive)
    terms = np.empty((2, len(blocks)))
    for k, idx in enumerate(blocks):
        mat = rows_batch(spec, idx)
        terms[0, k] = _block_gram_opnorm(mat, weights)
        product = None
        if phi is not None and support is None:
            product = _product_inf1(phi, idx, spec.side)
        terms[1, k] = _block_inf1_norm(mat, support) if product is None else product
    return terms[0], terms[1]


def _product_inf1(phi: np.ndarray, idx: np.ndarray, side: int) -> float | None:
    """||B*B||_inf,1 for a product-set block of a separable operator, else None.

    Flat indices col*side + row with {rows} x {cols} a product set give
    B = phi_C (x) phi_R, so the Gram max-entry factorises.
    """
    rows = np.unique(idx % side)
    cols = np.unique(idx // side)
    if len(rows) * len(cols) != len(idx):
        return None
    max_r, max_c = (float(np.abs(f.conj().T @ f).max()) for f in (phi[rows], phi[cols]))
    return max_r * max_c


def reference_vertical_lines(side: int) -> list:
    """Grid columns: block k holds flat indices k*side .. (k+1)*side - 1."""
    return [np.arange(k * side, (k + 1) * side) for k in range(side)]


def reference_horizontal_lines(side: int) -> list:
    """Grid rows: block k holds flat indices {k, k+side, k+2*side, ...}."""
    return [np.arange(side) * side + k for k in range(side)]


def reference_squares(side: int, block_side: int) -> list:
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
    return blocks


def _grid_line(idx: np.ndarray, side: int) -> tuple[int, int] | None:
    """(0, c) if block idx is all of grid column c, (1, r) for grid row r, else None."""
    if idx.size == side:
        for axis, line in enumerate((idx // side, idx % side)):
            if np.all(line == line[0]):
                return axis, int(line[0])
    return None
