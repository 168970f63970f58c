"""Unitary transforms for the composite operator A0 = Phi Psi*.

Phi is the measurement transform (identity, 1D/2D unitary DFT, 2D
Walsh-Hadamard in Sylvester order) and Psi the sparsity analysis transform
(identity, periodic orthonormal Haar/DB4 wavelets in 1D, square multilevel
MRA in 2D, or the separable tensor construction psi (x) psi).

Every stage except the DFT (which runs on numpy.fft) is a product with
cached per-axis factor matrices: the Hadamard matrix H, the single-level
wavelet step S_n and the multilevel analysis W_n.  A 1D wavelet computes
x W^T; a 2D Hadamard H X H; a tensor wavelet W X W^T; the square MRA
S_s X S_s^T on the shrinking s x s LL block, one level at a time.  The
adjoint and synthesis use the transposes.  2D factors are dense side x side
arrays (O(side^3) work per grid); 1D wavelet factors are CSR, since a dense
K x K factor would cost O(K^2) memory.  All stages act on the trailing
axis/axes of their input, so batches of vectors transform in one call.

2D objects are vectorised column-major: flat index r of a side x side grid
maps to (row, col) = (r % side, r // side).

`energy_classes` labels the columns of A0 by wavelet subband where the
modulus |a_{k,l}|^2 depends on l only through that label (DFT with any
wavelet, Hadamard with Haar), and returns None for the other pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import log2, sqrt

import numpy as np
from scipy import linalg, sparse

from .errors import DimensionMismatch, InvalidSpec


class Measurement(str, Enum):
    IDENTITY = "identity"
    DFT1D = "dft1d"
    DFT2D = "dft2d"
    HADAMARD2D = "hadamard2d"


class Sparsity(str, Enum):
    IDENTITY = "identity"
    HAAR1D = "haar1d"
    DB4_1D = "db4_1d"
    HAAR2D = "haar2d"            # square multilevel MRA
    DB4_2D = "db4_2d"            # square multilevel MRA
    TENSOR_HAAR = "tensor_haar"  # psi (x) psi, full 1D transform per axis
    TENSOR_DB4 = "tensor_db4"


class Direction(Enum):
    FORWARD = "forward"
    ADJOINT = "adjoint"


_2D_MEASUREMENTS = {Measurement.DFT2D, Measurement.HADAMARD2D}
_2D_SPARSITIES = {
    Sparsity.HAAR2D,
    Sparsity.DB4_2D,
    Sparsity.TENSOR_HAAR,
    Sparsity.TENSOR_DB4,
}
_1D_SPARSITIES = {Sparsity.HAAR1D, Sparsity.DB4_1D}
_MRA_SPARSITIES = {Sparsity.HAAR2D, Sparsity.DB4_2D}
_WAVELET_NAME = {
    s: "haar" if "haar" in s.value else "db4" for s in Sparsity if s != Sparsity.IDENTITY
}

# Orthonormal scaling filters (synthesis low-pass); sum = sqrt(2).
_HAAR_H = np.array([1.0, 1.0]) / sqrt(2.0)
_DB4_H = np.array(
    [
        0.23037781330885523,
        0.7148465705525415,
        0.6308807679295904,
        -0.02798376941698385,
        -0.18703481171888114,
        0.030841381835986965,
        0.032883011666982945,
        -0.010597401784997278,
    ]
)


def _wavelet_filters(name: str) -> tuple[np.ndarray, np.ndarray]:
    h = _HAAR_H if name == "haar" else _DB4_H
    # quadrature mirror: g[n] = (-1)^n h[L-1-n]
    g = h[::-1].copy()
    g[1::2] *= -1.0
    return h, g


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class OperatorSpec:
    """Declarative description of the unitary A0 = Phi Psi*.

    ``size`` is the signal length K for 1D operators and the grid side
    sqrt(K) for 2D operators.  ``levels`` is the wavelet decomposition
    depth; if omitted it defaults to the full depth log2(K) in 1D and to
    max(1, log2(side) - 3) in 2D.
    """

    measurement: Measurement
    sparsity: Sparsity
    size: int
    levels: int | None = None

    def __post_init__(self) -> None:
        meas = Measurement(self.measurement)
        spar = Sparsity(self.sparsity)
        object.__setattr__(self, "measurement", meas)
        object.__setattr__(self, "sparsity", spar)
        if not _is_pow2(self.size) or self.size < 2:
            raise InvalidSpec(f"size must be a power of two >= 2, got {self.size}")
        if meas == Measurement.DFT1D and spar in _2D_SPARSITIES:
            raise InvalidSpec("1D measurement cannot pair with 2D sparsity")
        if meas in _2D_MEASUREMENTS and spar in _1D_SPARSITIES:
            raise InvalidSpec("2D measurement cannot pair with 1D sparsity")
        levels = self.levels
        if spar == Sparsity.IDENTITY:
            levels = None
        elif levels is None:
            if spar in _1D_SPARSITIES:
                levels = int(log2(self.size))
            else:
                levels = max(1, int(log2(self.size)) - 3)
        else:
            levels = int(levels)
            max_levels = int(log2(self.size))
            if not 1 <= levels <= max_levels:
                raise InvalidSpec(
                    f"levels must lie in [1, {max_levels}], got {levels}"
                )
        object.__setattr__(self, "levels", levels)

    @property
    def is_2d(self) -> bool:
        return self.measurement in _2D_MEASUREMENTS or self.sparsity in _2D_SPARSITIES

    @property
    def side(self) -> int:
        if not self.is_2d:
            raise InvalidSpec("side is only defined for 2D operators")
        return self.size

    @property
    def dim(self) -> int:
        """Total number of coefficients K."""
        return self.size * self.size if self.is_2d else self.size


@dataclass
class RowVector:
    """Row a_k of the composite unitary A0, satisfying a_k . x = (A0 x)_k."""

    entries: np.ndarray
    index: int


# ----------------------------------------------------------------------
# per-axis factor matrices, cached and shared read-only by every caller

def _frozen(mat):
    for arr in (mat.data, mat.indices, mat.indptr) if sparse.issparse(mat) else (mat,):
        arr.flags.writeable = False
    return mat


@lru_cache(maxsize=None)
def _wavelet_step(name: str, n: int) -> sparse.csr_array:
    """Single-level periodic analysis S_n, low-pass rows above high-pass rows.

    Row i < n/2 holds h[t] at column (2i + t) mod n and row n/2 + i holds
    g[t] there; taps that wrap onto the same column (DB4 at n < 8) add up.
    """
    h, g = _wavelet_filters(name)
    half = n // 2
    cols = ((2 * np.arange(half)[:, None] + np.arange(len(h))) % n).ravel()
    step = sparse.coo_array(
        (
            np.concatenate([np.tile(h, half), np.tile(g, half)]),
            (np.repeat(np.arange(n), len(h)), np.concatenate([cols, cols])),
        ),
        shape=(n, n),
    )
    return _frozen(step.tocsr())


@lru_cache(maxsize=None)
def _wavelet_factor(name: str, n: int, levels: int, dense: bool):
    """Multilevel analysis W_n = prod_j blockdiag(S_{n/2^j}, I).

    Output layout [a_J, d_J, d_{J-1}, ..., d_1].  Dense for the side of a
    2D grid; CSR for a 1D signal, where a dense K x K factor is O(K^2).
    """
    w = _wavelet_step(name, n)
    for j in range(1, levels):
        s = n >> j
        level = sparse.block_diag([_wavelet_step(name, s), sparse.eye_array(n - s)], format="csr")
        w = level @ w
    return _frozen(w.toarray() if dense else w.tocsr())


@lru_cache(maxsize=None)
def _hadamard(n: int) -> np.ndarray:
    """Orthonormal Walsh-Hadamard matrix in Sylvester order (symmetric)."""
    return _frozen(linalg.hadamard(n) / sqrt(n))


def _along(factor, x: np.ndarray) -> np.ndarray:
    """Multiply `factor` (dense or CSR) into the last axis of x: x @ factor.T."""
    flat = x.reshape(-1, x.shape[-1]) @ factor.T
    return flat.reshape(x.shape[:-1] + (factor.shape[0],))


def _sandwich(factor: np.ndarray, img: np.ndarray) -> np.ndarray:
    """factor @ img @ factor.T on the trailing two axes."""
    return factor @ _along(factor, img)


def _grid(x: np.ndarray, side: int) -> np.ndarray:
    """(..., side, side) view of vectorised grids, each one transposed.

    Every 2D stage applies the same transform to both axes, so it may act
    on the transposed grid: (F X F^T)^T = F X^T F^T.  The column-major
    vectorisation then reduces to a plain reshape.
    """
    return x.reshape(x.shape[:-1] + (side, side))


# ----------------------------------------------------------------------
# measurement / sparsity stages

def _measure(spec: OperatorSpec, x: np.ndarray, forward: bool) -> np.ndarray:
    meas = spec.measurement
    if meas == Measurement.IDENTITY:
        return x
    if meas == Measurement.DFT1D:
        fn = np.fft.fft if forward else np.fft.ifft
        return fn(x, norm="ortho")
    img = _grid(x, spec.side)
    if meas == Measurement.DFT2D:
        fn = np.fft.fftn if forward else np.fft.ifftn
        img = fn(img, axes=(-2, -1), norm="ortho")
    else:
        # Hadamard is real symmetric orthogonal: adjoint = forward
        img = _sandwich(_hadamard(spec.side), img)
    return img.reshape(x.shape)


def _sparsity(spec: OperatorSpec, x: np.ndarray, analysis: bool) -> np.ndarray:
    spar = spec.sparsity
    if spar == Sparsity.IDENTITY:
        return x
    if np.iscomplexobj(x):
        # the factors are real: two real passes cost half of one complex
        # pass, and spare scipy.sparse a complex copy of the factor
        return _sparsity(spec, x.real, analysis) + 1j * _sparsity(spec, x.imag, analysis)
    name, levels = _WAVELET_NAME[spar], spec.levels
    if spar in _1D_SPARSITIES:
        w = _wavelet_factor(name, spec.size, levels, False)
        return _along(w if analysis else w.T, x)
    img = _grid(x, spec.side)
    if spar in _MRA_SPARSITIES:
        # one level per pass on the shrinking (or growing) LL block
        img = img.astype(np.result_type(img.dtype, np.float64))
        sides = [spec.side >> j for j in range(levels)]
        for s in sides if analysis else sides[::-1]:
            step = _wavelet_factor(name, s, 1, True)
            img[..., :s, :s] = _sandwich(step if analysis else step.T, img[..., :s, :s])
    else:
        w = _wavelet_factor(name, spec.side, levels, True)
        img = _sandwich(w if analysis else w.T, img)
    return img.reshape(x.shape)


def separable_factor(spec: OperatorSpec) -> np.ndarray | None:
    """Dense 1D factor phi with A0 = phi (x) phi, or None if non-separable.

    phi = M W^T, with M the per-axis measurement (identity, Hadamard or
    orthonormal DFT matrix) and W the per-axis wavelet analysis factor.
    """
    if not spec.is_2d or spec.sparsity in _MRA_SPARSITIES:
        return None
    side = spec.side
    if spec.measurement == Measurement.HADAMARD2D:
        phi = _hadamard(side)
    elif spec.measurement == Measurement.DFT2D:
        phi = np.fft.fft(np.eye(side), norm="ortho")
    else:
        phi = np.eye(side)
    if spec.sparsity == Sparsity.IDENTITY:
        return np.array(phi)
    w = _wavelet_factor(_WAVELET_NAME[spec.sparsity], side, spec.levels, True)
    return phi @ w.T


def _bands_1d(n: int, levels: int | None) -> np.ndarray:
    """Subband of each coefficient of an n-point 1D wavelet layout.

    The layout [a_J, d_J, d_{J-1}, ..., d_1] gives band 0 to a_J and band
    J + 1 - j to d_j; without a wavelet (levels None) there is one band.
    """
    if levels is None:
        return np.zeros(n, dtype=np.int64)
    # the frexp exponent of i // (n >> J) is its bit length: 0 on a_J,
    # then 1, 2, 3, ... on d_J, d_{J-1}, d_{J-2}, ...
    return np.frexp(np.arange(n) // (n >> levels))[1].astype(np.int64)


def energy_classes(spec: OperatorSpec) -> np.ndarray | None:
    """Labels l -> c such that |a_{k,l}|^2 depends on column l only through c.

    Within one wavelet subband the basis functions are translates of each
    other: cyclic shifts by 2^j per axis, which the DFT turns into a
    phase, and, for Haar, shifts between aligned dyadic blocks, which the
    Walsh-Hadamard transform turns into a sign.  So every column of A0 in
    a subband has the same modulus profile, and the subbands are the
    classes: J + 1 in 1D, (J + 1)^2 for tensor wavelets, 3J + 1 for the
    square MRA, one without a wavelet.  Returns None where no such
    invariance holds: the identity measurement, and Hadamard with DB4,
    whose periodised filters straddle dyadic blocks.
    """
    meas, spar = spec.measurement, spec.sparsity
    if meas == Measurement.IDENTITY or (
        meas == Measurement.HADAMARD2D and spar in (Sparsity.DB4_2D, Sparsity.TENSOR_DB4)
    ):
        return None
    if not spec.is_2d:
        return _bands_1d(spec.size, spec.levels)
    band = _bands_1d(spec.side, spec.levels)
    # flat index r is grid cell (r % side, r // side)
    rows = np.tile(band, spec.side)
    cols = np.repeat(band, spec.side)
    if spar not in _MRA_SPARSITIES:
        return rows * (band.max() + 1) + cols
    # square MRA: level f = max(band) >= 1 has three quadrants, by which of
    # the two axes is high-pass there; LL_J is class 0
    level = np.maximum(rows, cols)
    quadrant = (rows == level).astype(np.int64) + 2 * (cols == level) - 1
    return np.where(level == 0, 0, 3 * (level - 1) + 1 + quadrant)


def apply(spec: OperatorSpec, direction: Direction, x: np.ndarray) -> np.ndarray:
    """Apply A0 (Forward) or A0* (Adjoint) to vectors along the last axis.

    Forward computes Phi(Psi* x); Adjoint computes Psi(Phi* y).  Both are
    exact inverses of each other up to floating point roundoff.
    """
    x = np.asarray(x)
    if x.shape[-1] != spec.dim:
        raise DimensionMismatch(
            f"expected last axis {spec.dim}, got {x.shape[-1]}"
        )
    if direction == Direction.FORWARD:
        return _measure(spec, _sparsity(spec, x, analysis=False), forward=True)
    return _sparsity(spec, _measure(spec, x, forward=False), analysis=True)


def rows_batch(spec: OperatorSpec, indices) -> np.ndarray:
    """Rows a_k of A0 for the given indices, stacked as a matrix.

    Computed as conj(A0* e_k), one adjoint transform per batch; no dense
    K x K matrix is formed.
    """
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size and (indices.min() < 0 or indices.max() >= spec.dim):
        raise DimensionMismatch("row index out of range")
    slab = np.zeros((len(indices), spec.dim))
    slab[np.arange(len(indices)), indices] = 1.0
    return np.conj(apply(spec, Direction.ADJOINT, slab))


def row(spec: OperatorSpec, k: int) -> RowVector:
    """Extract row a_k of A0; satisfies row(k).entries . x = (A0 x)_k."""
    if not 0 <= k < spec.dim:
        raise DimensionMismatch(f"row index {k} out of range for K={spec.dim}")
    return RowVector(entries=rows_batch(spec, [k])[0], index=k)


def block_rows(spec: OperatorSpec, partition, k: int) -> list[RowVector]:
    """Rows B_k = (a_i)_{i in block k} in partition order."""
    idx = partition.blocks[k]
    mat = rows_batch(spec, idx)
    return [RowVector(entries=mat[j], index=int(idx[j])) for j in range(len(idx))]


def dense_matrix(spec: OperatorSpec, limit: int = 4096) -> np.ndarray:
    """Materialise A0 densely; oracle/test use only, guarded by `limit`."""
    if spec.dim > limit:
        raise InvalidSpec(f"refusing to build dense operator with K={spec.dim}")
    return rows_batch(spec, np.arange(spec.dim))


def row_chunks(spec: OperatorSpec, chunk: int | None = None):
    """Yield (indices, rows) covering all K rows in index order."""
    k_total = spec.dim
    if chunk is None:
        chunk = max(64, min(k_total, (1 << 24) // (16 * k_total)))
    for start in range(0, k_total, chunk):
        idx = np.arange(start, min(start + chunk, k_total))
        yield idx, rows_batch(spec, idx)


def signed_frequencies(side: int) -> np.ndarray:
    """Signed DFT frequency of each storage index: 0..side/2, then negative."""
    f = np.arange(side)
    return np.where(f <= side // 2, f, f - side)
