"""Reference kernels for the composite operator A0 = Phi Psi*, test use only.

These are the strided in-place FWHT and periodic DWT kernels that
`avds.transforms` used before it switched to cached per-axis factor
matrices.  They are kept, unchanged, as the oracle of that fast path:
`reference_apply` and `reference_separable_factor` must agree with
`avds.transforms.apply` and `avds.transforms.separable_factor`.

`dense_matrix` materialises A0 row by row through `rows_batch`, the dense
oracle of the transform and density tests; it left `avds.transforms`
because nothing in the package used it.

`row_energies` is the dense |a_{k,l}|^2 table that `avds.density` read
before isolated-row terms moved to subband energy classes, kept as an
independent check of densities and trace identities.

`reference_walsh_haar_layout` is the corner walk that built the
Hadamard x Haar solver layout before it became a stable sort by subband
class, kept as the oracle of `avds.transforms.solver_plan`'s order.
"""

from __future__ import annotations

from functools import lru_cache
from math import sqrt

import numpy as np

from avds.errors import InvalidSpec
from avds.transforms import (
    Direction,
    Measurement,
    OperatorSpec,
    Sparsity,
    _1D_SPARSITIES,
    _wavelet_filters,
    rows_batch,
)


def _fwht(x: np.ndarray) -> np.ndarray:
    """Orthonormal Walsh-Hadamard transform (Sylvester order), last axis."""
    n = x.shape[-1]
    y = np.array(x, dtype=np.result_type(x.dtype, np.float64), copy=True)
    flat = y.reshape(-1, n)
    h = 1
    while h < n:
        blk = flat.reshape(flat.shape[0], n // (2 * h), 2, h)
        a = blk[:, :, 0, :].copy()
        b = blk[:, :, 1, :]
        blk[:, :, 0, :] = a + b
        blk[:, :, 1, :] = a - b
        h *= 2
    flat *= 1.0 / sqrt(n)
    return flat.reshape(y.shape)


def _dwt_step(x: np.ndarray, h: np.ndarray, g: np.ndarray):
    n = x.shape[-1]
    half = n // 2
    pos = 2 * np.arange(half)
    dtype = np.result_type(x.dtype, np.float64)
    a = np.zeros(x.shape[:-1] + (half,), dtype=dtype)
    d = np.zeros_like(a)
    for t in range(len(h)):
        seg = x[..., (pos + t) % n]
        a += h[t] * seg
        d += g[t] * seg
    return a, d


def _idwt_step(a: np.ndarray, d: np.ndarray, h: np.ndarray, g: np.ndarray):
    half = a.shape[-1]
    n = 2 * half
    pos = 2 * np.arange(half)
    x = np.zeros(a.shape[:-1] + (n,), dtype=np.result_type(a.dtype, np.float64))
    for t in range(len(h)):
        x[..., (pos + t) % n] += h[t] * a + g[t] * d
    return x


def _dwt1(x: np.ndarray, name: str, levels: int) -> np.ndarray:
    """Multilevel periodic analysis, layout [a_J, d_J, d_{J-1}, ..., d_1]."""
    h, g = _wavelet_filters(name)
    y = np.array(x, dtype=np.result_type(x.dtype, np.float64), copy=True)
    n = y.shape[-1]
    for _ in range(levels):
        a, d = _dwt_step(y[..., :n], h, g)
        y[..., : n // 2] = a
        y[..., n // 2 : n] = d
        n //= 2
    return y


def _idwt1(x: np.ndarray, name: str, levels: int) -> np.ndarray:
    h, g = _wavelet_filters(name)
    y = np.array(x, dtype=np.result_type(x.dtype, np.float64), copy=True)
    n = y.shape[-1] >> levels
    for _ in range(levels):
        a = y[..., :n].copy()
        d = y[..., n : 2 * n].copy()
        y[..., : 2 * n] = _idwt_step(a, d, h, g)
        n *= 2
    return y


def _along_axis2(fn, img: np.ndarray) -> np.ndarray:
    """Apply a last-axis kernel along axis -2."""
    return np.swapaxes(fn(np.swapaxes(img, -1, -2)), -1, -2)


def _dwt2_square(img: np.ndarray, name: str, levels: int) -> np.ndarray:
    """Square multilevel MRA on (..., side, side); LL recursed in place."""
    h, g = _wavelet_filters(name)
    out = np.array(img, dtype=np.result_type(img.dtype, np.float64), copy=True)
    s = out.shape[-1]
    for _ in range(levels):
        sub = out[..., :s, :s]
        # columns (axis -2), then rows (axis -1)
        tmp = np.swapaxes(sub, -1, -2)
        a, d = _dwt_step(tmp, h, g)
        sub = np.swapaxes(np.concatenate([a, d], axis=-1), -1, -2)
        a, d = _dwt_step(sub, h, g)
        out[..., :s, :s] = np.concatenate([a, d], axis=-1)
        s //= 2
    return out


def _idwt2_square(img: np.ndarray, name: str, levels: int) -> np.ndarray:
    h, g = _wavelet_filters(name)
    out = np.array(img, dtype=np.result_type(img.dtype, np.float64), copy=True)
    side = out.shape[-1]
    s = side >> (levels - 1)
    for _ in range(levels):
        sub = out[..., :s, :s]
        half = s // 2
        # undo rows, then columns
        sub = _idwt_step(sub[..., :half].copy(), sub[..., half:].copy(), h, g)
        tmp = np.swapaxes(sub, -1, -2)
        tmp = _idwt_step(tmp[..., :half].copy(), tmp[..., half:].copy(), h, g)
        out[..., :s, :s] = np.swapaxes(tmp, -1, -2)
        s *= 2
    return out


def _unvec(x: np.ndarray, side: int) -> np.ndarray:
    """Column-major inverse vectorisation to (..., side, side)."""
    return np.swapaxes(x.reshape(x.shape[:-1] + (side, side)), -1, -2)


def _vec(img: np.ndarray) -> np.ndarray:
    return np.swapaxes(img, -1, -2).reshape(img.shape[:-2] + (-1,))


def _measure(spec: OperatorSpec, x: np.ndarray, forward: bool) -> np.ndarray:
    meas = spec.measurement
    if meas == Measurement.IDENTITY:
        return x
    if meas == Measurement.DFT1D:
        fn = np.fft.fft if forward else np.fft.ifft
        return fn(x, norm="ortho")
    if meas == Measurement.DFT2D:
        img = _unvec(x, spec.side)
        fn = np.fft.fftn if forward else np.fft.ifftn
        return _vec(fn(img, axes=(-2, -1), norm="ortho"))
    # Hadamard is real symmetric orthogonal: adjoint = forward
    img = _unvec(x, spec.side)
    img = _along_axis2(_fwht, _fwht(img))
    return _vec(img)


def _sparsity(spec: OperatorSpec, x: np.ndarray, analysis: bool) -> np.ndarray:
    spar = spec.sparsity
    if spar == Sparsity.IDENTITY:
        return x
    levels = spec.levels
    if spar in _1D_SPARSITIES:
        name = "haar" if spar == Sparsity.HAAR1D else "db4"
        return (_dwt1 if analysis else _idwt1)(x, name, levels)
    name = "haar" if spar in (Sparsity.HAAR2D, Sparsity.TENSOR_HAAR) else "db4"
    img = _unvec(x, spec.side)
    if spar in (Sparsity.HAAR2D, Sparsity.DB4_2D):
        img = (_dwt2_square if analysis else _idwt2_square)(img, name, levels)
    else:
        fn1 = _dwt1 if analysis else _idwt1
        img = _along_axis2(lambda a: fn1(a, name, levels), fn1(img, name, levels))
    return _vec(img)


def reference_apply(spec: OperatorSpec, direction: Direction, x: np.ndarray) -> np.ndarray:
    """A0 x (FORWARD) or A0* x (ADJOINT) through the reference kernels."""
    x = np.asarray(x)
    if direction == Direction.FORWARD:
        return _measure(spec, _sparsity(spec, x, analysis=False), forward=True)
    return _sparsity(spec, _measure(spec, x, forward=False), analysis=True)


def _reference_rows(spec: OperatorSpec) -> np.ndarray:
    """All rows of A0, as conj(A0* e_k) through the reference kernels."""
    return np.conj(reference_apply(spec, Direction.ADJOINT, np.eye(spec.dim)))


def reference_separable_factor(spec: OperatorSpec) -> np.ndarray | None:
    """Dense 1D factor phi with A0 = phi (x) phi, or None if non-separable."""
    if not spec.is_2d:
        return None
    if spec.sparsity not in (Sparsity.IDENTITY, Sparsity.TENSOR_HAAR, Sparsity.TENSOR_DB4):
        return None
    side = spec.side
    if spec.measurement == Measurement.HADAMARD2D:
        phi_m = _fwht(np.eye(side))
    elif spec.measurement == Measurement.IDENTITY:
        phi_m = np.eye(side)
    else:
        phi_m = _reference_rows(OperatorSpec(Measurement.DFT1D, Sparsity.IDENTITY, side))
    if spec.sparsity == Sparsity.IDENTITY:
        return phi_m
    name = Sparsity.HAAR1D if spec.sparsity == Sparsity.TENSOR_HAAR else Sparsity.DB4_1D
    spec_1d = OperatorSpec(Measurement.IDENTITY, name, side, levels=spec.levels)
    # the rows of the 1D (identity x wavelet) operator are the rows of the
    # synthesis matrix Psi1*, so phi = phi_m Psi1* is a plain product.
    return phi_m @ _reference_rows(spec_1d)


@lru_cache(maxsize=4)
def row_energies(spec: OperatorSpec) -> np.ndarray:
    """|a_{k,l}|^2 for all rows of A0, cached; only for K <= 2048.

    Larger operators are handled by streaming `rows_batch` chunks in the
    caller so no K x K array is ever held.
    """
    if spec.dim > 2048:
        raise InvalidSpec("row_energies is limited to K <= 2048; stream rows instead")
    mat = rows_batch(spec, np.arange(spec.dim))
    return np.abs(mat) ** 2


def dense_matrix(spec: OperatorSpec, limit: int = 4096) -> np.ndarray:
    """Materialise A0 densely; oracle/test use only, guarded by `limit`."""
    if spec.dim > limit:
        raise InvalidSpec(f"refusing to build dense operator with K={spec.dim}")
    return rows_batch(spec, np.arange(spec.dim))


def reference_walsh_haar_layout(side: int, levels: int) -> tuple[np.ndarray, list]:
    """(order, sizes) of the Walsh-Haar solver layout by its corner walk.

    Level j = 1..J takes the three detail quadrants of side s = side >> j
    at the corners (s, 0), (0, s), (s, s) of the grid cell (a, b) of flat
    index a * side + b, and the last level LL_J at (0, 0) as well; each
    quadrant is one s x s block, row-major.
    """
    order, sizes = [], []
    for j in range(1, levels + 1):
        s = side >> j
        corners = ((s, 0), (0, s), (s, s), (0, 0))[: 3 + (j == levels)]
        i = np.arange(s)
        order += [((r + i)[:, None] * side + c + i).ravel() for r, c in corners]
        sizes += [s * s] * len(corners)
    return np.concatenate(order), sizes
