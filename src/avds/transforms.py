"""Unitary transforms for the composite operator A0 = Phi Psi*.

Phi is the measurement transform (identity, 1D/2D unitary DFT, 2D
Walsh-Hadamard in Sylvester order) and Psi the sparsity analysis transform
(identity, periodic orthonormal Haar/DB4 wavelets in 1D, square multilevel
MRA in 2D, or the separable tensor construction psi (x) psi).

Each wavelet is described once, as a periodic two-channel filter bank run
by index gathers (`_filter_bank`): per level, a cached (taps, n/2) index
array and the filters give the analysis step, and the transposed gather
its synthesis, O(taps) work per entry.  A 1D wavelet runs these gathers
level by level next to the 1D DFT (numpy.fft), on real or complex input.
A 2D operator is one per-axis map, tabled by `_column_factors` from dense
factors built by the gathers: the Hadamard matrix H (Sylvester
recursion), the single-level step S_n and the multilevel analysis W_n,
each the gather applied to the identity.  Its outer part is G = D M
W_out^T per axis: D the orthonormal DFT matrix for DFT2D (else I), M = H
for Hadamard (else I), and W_out all of W for a tensor wavelet, the
finest step S_side for the square MRA and I without a wavelet.  The
forward transform runs the remaining MRA levels J..2 as S_s^T X S_s on
the shrinking s x s LL block, then G X G^T; the adjoint
runs G^H Y conj(G), then the levels 2..J.  The DFT is folded into G, so
numpy.fft runs only for the 1D DFT and for DFT2D without a wavelet, where
dense complex factors are slower than `fft2`.  A real operator (Hadamard
or identity measurement) on complex input multiplies complex arrays by its
real factors: about twice the time of its real and imaginary parts as two
real inputs.  No pipeline path feeds it one.  2D factors are side x side
arrays (O(side^3) work per grid).  All stages act on the trailing
axis/axes of their input, so batches of vectors transform in one call.
Since every 2D stage acts alike on both axes, each column of a 2D A0 is
the Kronecker product of two per-axis rows of that table, which
`column_pairs`, the one reader of A0's columns, gathers from.
Operators are limited to K <= MAX_DIM = 2^20.

2D objects are vectorised column-major: flat index r of a side x side grid
maps to (row, col) = (r % side, r // side).

The square-MRA subbands are described once: `_grid_bands` gives the
(row band, column band) of each flat index from the per-axis bands, and
`_mra_classes` labels a band pair with one of the 3J + 1 subbands.
`energy_classes` labels the columns of A0 by wavelet subband where the
modulus |a_{k,l}|^2 depends on l only through that label (DFT with any
wavelet, Hadamard with Haar), and returns None for the other pairs.

Hadamard with the Haar MRA is more than that: Sylvester order and the Haar
step satisfy H_n S_n^T = R_n diag(H_{n/2}, H_{n/2}), with R_n interleaving
rows, so at every level A0 is a fixed permutation of a block-diagonal
matrix, one Walsh-Hadamard block H_s (x) H_s per s x s subband (each block
one energy class).  `solver_plan` gives basis pursuit the layout to iterate
in, and the projection onto {x : Ax = y} that a solve builds there once:
for this operator the subbands as contiguous blocks, found by two stable
sorts by the subband label, of the coefficients by their Haar bands and
of the measurements by their Walsh bands (per axis, J minus the position
of the index's lowest set bit, at most J); the whole block operator two
matrix products, since H_s (x) H_s = H_{s^2/c} (x) H_c with c = side/2
(about 262k multiply-adds in two calls per transform at side 64 and J =
3, against 598k for the dense factors), each written into buffers the
projection owns; for every other operator the identity layout with the
stages of `apply`.
`apply` itself keeps the dense per-axis factors: per call the two gathers
into and out of the block layout cost more than they save.

Only the builds that calls reuse are cached.  Three are per spec and kept
for the last `_SPECS_KEPT` specs used: the per-axis table
(`_column_factors`), the stages of `apply` in both directions (`_stages`)
and the solver layout (`solver_plan`).  The dense factors H, W_n and S_n
are built again on a miss.  The filter-bank gathers (`_filter_bank`) stay
for every (wavelet, length) used, at most 2 x 20 of them: one full-depth
1D transform reads log2 K of them, so a small bound would evict inside
one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, partial
from math import log2, sqrt
from typing import Callable, NamedTuple

import numpy as np

from .errors import DimensionMismatch, InvalidSpec, _check_count, _check_indices


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
        0.2303778133088965,
        0.7148465705529157,
        0.6308807679298589,
        -0.027983769416859854,
        -0.18703481171909309,
        0.030841381835560764,
        0.0328830116668852,
        -0.010597401785069032,
    ]
)


def _wavelet_filters(name: str) -> tuple[np.ndarray, np.ndarray]:
    h = _HAAR_H if name == "haar" else _DB4_H
    # quadrature mirror: g[n] = (-1)^n h[L-1-n]
    g = h[::-1].copy()
    g[1::2] *= -1.0
    return h, g


# Largest K of an operator: every array of K entries then stays within 8 MB.
MAX_DIM = 1 << 20


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
        try:
            meas = Measurement(self.measurement)
            spar = Sparsity(self.sparsity)
        except ValueError as exc:
            raise InvalidSpec(str(exc)) from exc
        object.__setattr__(self, "measurement", meas)
        object.__setattr__(self, "sparsity", spar)
        size = _check_count(self.size, "size", 2, InvalidSpec)
        if not _is_pow2(size):
            raise InvalidSpec(f"size must be a power of two >= 2, got {size}")
        object.__setattr__(self, "size", size)
        if self.dim > MAX_DIM:
            raise InvalidSpec(f"K = {self.dim} exceeds the limit K <= {MAX_DIM}")
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
            levels = _check_count(levels, "levels", 1, InvalidSpec)
            max_levels = int(log2(self.size))
            if levels > max_levels:
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


# ----------------------------------------------------------------------
# cached arrays, shared read-only by every caller

# Specs whose per-spec builds stay cached: a run uses one operator, and
# the test suite, which sweeps every spec up to K = 1024, ran no slower at
# 4 than with every build kept.
_SPECS_KEPT = 4


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@lru_cache(maxsize=None)
def _filter_bank(name: str, n: int) -> tuple[np.ndarray, ...]:
    """Gathers of the single-level periodic step at length n.

    Analysis: [a, d][i] = sum_t [h, g][t] x[(2i + t) mod n], from a
    (taps, n/2) index array and the (2, taps) filters [h; g].  Synthesis
    is its transpose, x[2m + p] = sum_u h[2u + p] a[(m - u) mod n/2] +
    g[2u + p] d[(m - u) mod n/2]: a (taps, n/2) index array into [a, d]
    and the (2, taps) polyphase filters, one row per parity p.  Taps that
    wrap (DB4 at n < 8) repeat an index, and the repeats add up.  Taps run
    along the first axis: a gather then ends in n/2 contiguous entries.
    """
    h, g = _wavelet_filters(name)
    half = n // 2
    i = np.arange(half)
    shifted = (i - np.arange(len(h) // 2)[:, None]) % half
    return tuple(
        _frozen(arr)
        for arr in (
            (2 * i + np.arange(len(h))[:, None]) % n,
            np.stack([h, g]),
            np.concatenate([shifted, shifted + half]),
            np.stack([np.concatenate([h[p::2], g[p::2]]) for p in (0, 1)]),
        )
    )


def _analysis(name: str, x: np.ndarray, levels: int) -> np.ndarray:
    """Multilevel periodic analysis along the last axis, O(taps) per entry.

    Layout [a_J, d_J, d_{J-1}, ..., d_1]; each level filters the current
    approximation, the first n entries, into [a, d].
    """
    y = np.array(x, dtype=np.result_type(x, float))
    n = y.shape[-1]
    for _ in range(levels):
        index, filters = _filter_bank(name, n)[:2]
        y[..., :n] = (filters @ np.take(y, index, axis=-1)).reshape(y.shape[:-1] + (n,))
        n //= 2
    return y


def _synthesis(name: str, y: np.ndarray, levels: int) -> np.ndarray:
    """Inverse (and transpose) of `_analysis`, coarsest level first."""
    x = np.array(y, dtype=np.result_type(y, float))
    n = x.shape[-1] >> (levels - 1)
    for _ in range(levels):
        index, filters = _filter_bank(name, n)[2:]
        parity = filters @ np.take(x, index, axis=-1)  # (..., 2, n/2)
        x[..., 0:n:2] = parity[..., 0, :]
        x[..., 1:n:2] = parity[..., 1, :]
        n *= 2
    return x


def _wavelet_factor(name: str, n: int, levels: int) -> np.ndarray:
    """Dense multilevel analysis matrix W_n, the analysis of every e_l.

    For the side of a 2D grid; a 1D signal runs the gathers directly.
    """
    return np.ascontiguousarray(_analysis(name, np.eye(n), levels).T)


def _hadamard(n: int) -> np.ndarray:
    """Orthonormal Walsh-Hadamard matrix in Sylvester order (symmetric)."""
    h = np.ones((1, 1))
    while len(h) < n:
        h = np.block([[h, h], [h, -h]])
    return h / sqrt(n)


def _with_transpose(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mat, mat^T), both C-contiguous: BLAS reads a transposed view slower."""
    return _frozen(np.ascontiguousarray(mat)), _frozen(np.ascontiguousarray(mat.T))


def _sandwich(pair, img: np.ndarray, out=None) -> np.ndarray:
    """L X R on the trailing two axes; pair = (L, R).

    A real X against a complex R is one real GEMM against R viewed as
    (re, im) float pairs: half the multiplies of promoting X to complex.
    """
    left, right = pair
    if np.iscomplexobj(right) and not np.iscomplexobj(img):
        return np.matmul(left, (img @ right.view(np.float64)).view(np.complex128), out=out)
    return np.matmul(left, img @ right, out=out)


def _grid(x: np.ndarray, side: int) -> np.ndarray:
    """(..., side, side) view of vectorised grids, each one transposed.

    Every 2D stage applies the same transform to both axes, so it may act
    on the transposed grid: (F X F^T)^T = F X^T F^T.  The column-major
    vectorisation then reduces to a plain reshape.
    """
    return x.reshape(x.shape[:-1] + (side, side))


# ----------------------------------------------------------------------
# the per-axis map: one table, read by `apply` and by the column readers

def _inner_steps(spec: OperatorSpec) -> tuple:
    """Pairs (S_s, S_s^T) of the square-MRA levels inside the outer
    factor, s = side/2 .. side >> (J - 1), finest first; none otherwise."""
    if spec.sparsity not in _MRA_SPARSITIES:
        return ()
    name = _WAVELET_NAME[spec.sparsity]
    return tuple(
        _with_transpose(_wavelet_factor(name, spec.side >> j, 1)) for j in range(1, spec.levels)
    )


@lru_cache(maxsize=_SPECS_KEPT)
def _column_factors(spec: OperatorSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-axis rows (P, iu, iv) of a 2D A0: A0[:, l] = kron(P[iu[l]], P[iv[l]]).

    The one place that composes the per-axis map.  Its outer part is
    G = D F, F = M W_out^T: M the Hadamard matrix (else I), W_out the
    outermost wavelet analysis (all of W for a tensor wavelet, the finest
    step S_side for the square MRA, I without a wavelet) and D the
    orthonormal DFT matrix for DFT2D (else I).  Column l is the transposed
    grid e_p e_q^T, (p, q) = divmod(l, side), and every stage of `apply`
    maps an outer product g h^T to (T g)(T h)^T with one per-axis map T.
    For a tensor wavelet or none, T = G for all of the grid, so P is the
    one table G^T, iu = p and iv = q.  The square MRA's levels act on the
    shrinking LL block only, so the steps that reach (p, q) start at its
    level, max(band p, band q) as in `energy_classes`: P stacks one table
    per level, the rows p < side >> (j - 1) of the synthesis from level j
    (the steps S_s^T, s = side >> (j - 1) .. side/2, then G), and the
    coarsest table serves LL_J as well.  The first table is G^T whole,
    which `apply` reads through `_stages`.
    """
    side, spar = spec.side, spec.sparsity
    factor = _hadamard(side) if spec.measurement == Measurement.HADAMARD2D else None
    if spar != Sparsity.IDENTITY:
        levels = 1 if spar in _MRA_SPARSITIES else spec.levels
        w_t = _wavelet_factor(_WAVELET_NAME[spar], side, levels).T
        factor = w_t if factor is None else factor @ w_t
    inner = _inner_steps(spec)
    depth = len(inner) + 1
    tables = []
    for j in range(1, depth + 1):
        n = side >> (j - 1)
        rows = np.eye(n, side)  # row-vector form: (T g)^T = g^T T^T
        for pair in inner[: j - 1][::-1]:
            s = len(pair[0])
            rows[:, :s] = rows[:, :s] @ pair[0]
        if factor is not None:
            rows = rows @ np.ascontiguousarray(factor.T)
        if spec.measurement == Measurement.DFT2D:
            rows = np.fft.fft(rows, axis=-1, norm="ortho")
        tables.append(rows)
    offsets = np.cumsum([0] + [len(t) for t in tables])
    # (p, q) at level j = J + 1 - max(band p, band q, 1) takes table j - 1;
    # clipped to the one table when there are no MRA levels
    level = np.clip(np.maximum(*_grid_bands(_bands_1d(side, spec.levels))), 1, depth)
    start = offsets[depth - level]
    p, q = np.divmod(np.arange(side * side), side)
    return _frozen(np.concatenate(tables)), _frozen(start + p), _frozen(start + q)


def column_pairs(spec: OperatorSpec, cols) -> tuple[np.ndarray, np.ndarray]:
    """(u, v) with column cols[i] of A0 equal to kron(u[i], v[i]): the one reader of A0's columns.

    Entry r of that column is u[i, r // w] * v[i, r % w], w = v.shape[1].
    A 2D operator gathers both from its cached per-axis table and
    transforms nothing; a 1D operator is the width-1 case, u the forward
    transform of the one-hots and v = 1.
    """
    if spec.is_2d:
        table, iu, iv = _column_factors(spec)
        return table[iu[cols]], table[iv[cols]]
    slab = np.zeros((len(cols), spec.dim))
    slab[np.arange(len(cols)), cols] = 1.0
    return apply(spec, Direction.FORWARD, slab), np.ones((len(cols), 1))


def separable_factor(spec: OperatorSpec) -> np.ndarray | None:
    """Dense 1D factor phi with A0 = phi (x) phi, or None if non-separable.

    phi is the per-axis map G = D F of `_column_factors` (the DFT matrix D
    already folded in for DFT2D): its one table transposed, copied for the
    caller.
    """
    if not spec.is_2d or spec.sparsity in _MRA_SPARSITIES:
        return None
    return np.array(_column_factors(spec)[0].T, order="C")


def _grid_stages(outer, inner: tuple, x: np.ndarray, forward: bool) -> np.ndarray:
    """Forward: the MRA levels J..2 on the shrinking LL block, then the
    outer pair, G X G^T.  Adjoint: the outer pair, G^H Y conj(G), then the
    levels 2..J."""
    img = _grid(x, len(outer[0]))
    if not forward:
        img = _sandwich(outer, img)
    if inner:
        # the levels run in place: copy the caller's array, not G^H Y conj(G)
        img = img.astype(np.result_type(img, float), copy=forward)
        for pair in inner[::-1] if forward else inner:
            block = img[..., : len(pair[0]), : len(pair[0])]
            _sandwich(pair[::-1] if forward else pair, block, out=block)  # S^T X S, S X S^T
    if forward:
        img = _sandwich(outer, img)
    return img.reshape(x.shape)


@lru_cache(maxsize=_SPECS_KEPT)
def _stages(spec: OperatorSpec) -> tuple[Callable, Callable]:
    """`apply` for one spec, (forward, adjoint), its stages resolved once.

    2D: DFT2D without a wavelet on numpy.fft; every other operator by
    `_grid_stages`, on the forward pair (G, G^T) and the adjoint pair (G^H,
    conj G), read from the first table P_1 = G^T of `_column_factors`, and
    the inner MRA step pairs.  For a real G the adjoint pair is the forward
    pair reversed, so a real operator multiplies by exactly G and G^T.  1D:
    forward the synthesis, then the DFT; adjoint the inverse DFT, then the
    analysis.  Either may be absent; with both absent the one step is a
    copy, so no result is the caller's array.
    """
    if spec.measurement == Measurement.DFT2D and spec.sparsity == Sparsity.IDENTITY:
        side = spec.side
        return tuple(
            lambda x, fft2=fft2: fft2(_grid(x, side), norm="ortho").reshape(x.shape)
            for fft2 in (np.fft.fft2, np.fft.ifft2)
        )
    if spec.is_2d:
        g_t = _column_factors(spec)[0][: spec.side]
        forward = _with_transpose(g_t.T)
        adjoint = _with_transpose(g_t.conj()) if np.iscomplexobj(g_t) else forward[::-1]
        inner = _inner_steps(spec)
        return (
            partial(_grid_stages, forward, inner, forward=True),
            partial(_grid_stages, adjoint, inner, forward=False),
        )
    name = _WAVELET_NAME.get(spec.sparsity)  # None without a wavelet
    dft = spec.measurement == Measurement.DFT1D

    def run_1d(x, forward):
        if dft and not forward:
            x = np.fft.ifft(x, norm="ortho")
        if name:
            x = (_synthesis if forward else _analysis)(name, x, spec.levels)  # Psi* x, Psi y
        if dft and forward:
            x = np.fft.fft(x, norm="ortho")
        return x if name or dft else np.copy(x)

    return partial(run_1d, forward=True), partial(run_1d, forward=False)


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


def _grid_bands(band: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row band, column band) of each flat index r of a side x side grid,
    the cell (r % side, r // side), from the per-axis bands `band`."""
    side = len(band)
    return np.tile(band, side), np.repeat(band, side)


def _mra_classes(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The 3J + 1 square-MRA subbands of the band pairs (rows, cols).

    Level f = max(rows, cols) >= 1 has three quadrants, numbered by which
    of the two axes is high-pass there: 0 the row axis, 1 the column axis,
    2 both; quadrant q of level f is class 3(f - 1) + 1 + q, LL_J class 0.
    """
    level = np.maximum(rows, cols)
    quadrant = (rows == level).astype(np.int64) + 2 * (cols == level) - 1
    return np.where(level == 0, 0, 3 * (level - 1) + 1 + quadrant)


def energy_classes(spec: OperatorSpec) -> np.ndarray | None:
    """Labels l -> c such that |a_{k,l}|^2 depends on column l only through c.

    Within one wavelet subband the basis functions are translates of each
    other: cyclic shifts by 2^j per axis, which the DFT turns into a
    phase, and, for Haar, shifts between aligned dyadic blocks, which the
    Walsh-Hadamard transform turns into a sign.  So every column of A0 in
    a subband has the same modulus profile, and the subbands are the
    classes: J + 1 in 1D, (J + 1)^2 for tensor wavelets, 3J + 1 for the
    square MRA (`_mra_classes`), one without a wavelet.  Returns None where
    no such invariance holds: the identity measurement, and Hadamard with
    DB4, whose periodised filters straddle dyadic blocks.
    """
    meas, spar = spec.measurement, spec.sparsity
    if meas == Measurement.IDENTITY or (
        meas == Measurement.HADAMARD2D and spar in (Sparsity.DB4_2D, Sparsity.TENSOR_DB4)
    ):
        return None
    if not spec.is_2d:
        return _bands_1d(spec.size, spec.levels)
    band = _bands_1d(spec.side, spec.levels)
    rows, cols = _grid_bands(band)
    if spar in _MRA_SPARSITIES:
        return _mra_classes(rows, cols)
    return rows * (band.max() + 1) + cols


class SolverPlan(NamedTuple):
    """A0 in the coefficient layout the solver iterates in.

    `order[i]` is the coefficient at layout position i.  `projector(rows,
    y)` builds, once per solve, `project(v, out)`: out = v - A*(Av - y)
    for one measurement vector y of the rows `rows` of A0, in the order of
    y, in buffers it owns.  Its v and out have `shape`, the layout's K
    entries in the shape its kernels read.
    """

    order: np.ndarray
    shape: tuple
    projector: Callable[[np.ndarray, np.ndarray], Callable[[np.ndarray, np.ndarray], None]]


def _walsh_haar_plan(spec: OperatorSpec) -> SolverPlan:
    """Hadamard2D x Haar MRA as one Walsh-Hadamard block per subband.

    Sylvester order and the Haar step satisfy H_n S_n^T = R_n
    diag(H_{n/2}, H_{n/2}), R_n sending row k of the first half to 2k and
    row k of the second to 2k + 1: the Hadamard transform of a Haar
    synthesis is the Hadamard transforms of its two halves, interleaved.  At
    every MRA level the three detail quadrants stop there and the LL block
    recurses, so A0 maps each s x s subband B to H_s B H_s and places the
    result on its own set of measurements.  Per axis, the interleavings
    send the details d_j to the indices whose lowest set bit is bit j - 1,
    so a measurement index i has Walsh band J - min(t, J), t its trailing
    zeros (i = 0 counts as J), where a coefficient has Haar band
    `_bands_1d`.  The subband of a measurement is then the `_mra_classes`
    class of its Walsh band pair, as that of a coefficient is of its Haar
    band pair, and within a subband both run in flat-index order.

    So the layout is two stable sorts by one class rank, finest level
    first, quadrants 1, 0, 2, LL_J last: the coefficients by their Haar
    classes give `order`, contiguous s x s blocks (row-major), and the
    measurements by their Walsh classes give, inverted, the layout slot of
    each measurement.  Block B maps to H_s B H_s, which is H_s (x) H_s =
    H_{s^2} on its vector, and in Sylvester order H_{s^2} = H_{s^2/c} (x)
    H_c for every power of two c <= s^2.  With c = side/2 the layout is a
    stack of four c x c tiles U, and the whole operator is two products, T
    U H_c: one shared H_c on the right, and on the left T, four c-square
    tiles, each block-diagonal with the H_{s^2/c} of the subbands in its
    rows.  Blocks are finest first with power-of-two sizes, so none
    straddles a tile.  Subbands with s^2 < c share rows: the last 4 (side
    >> j0)^2 entries, one or two rows, j0 the first such level.  No block
    straddles a row either, so each shared row takes one product with its
    own block-diagonal c x c factor, and zeros in its tile.  At side 64, J
    = 3 this is 262k multiply-adds in two matrix products, against 225k in
    six for one H_s B H_s stack per side: more multiply-adds in fewer
    calls.  The block operator B is real, symmetric and its own inverse, so
    it is its own adjoint, and the projection v - B(keep B v - y) is
    B(where(keep, y, B v)): one assignment of the measurement vector y to
    the flat layout positions of its rows between two transforms, which
    write into buffers of the iterate's dtype.
    """
    side, levels = spec.side, spec.levels
    # the classes in layout order: finest level first, quadrants 1, 0, 2, LL_J last
    ranked = [3 * f - 2 + q for f in range(levels, 0, -1) for q in (1, 0, 2)] + [0]
    rank = np.argsort(ranked)
    haar = _mra_classes(*_grid_bands(_bands_1d(side, levels)))
    order = np.argsort(rank[haar], kind="stable")
    sizes = np.bincount(haar)[ranked].tolist()
    # Walsh band J - min(trailing zeros, J); bit J stands in for index 0
    low = np.arange(side) | (1 << levels)
    walsh = _mra_classes(*_grid_bands(levels + 1 - np.frexp(low & -low)[1]))
    slots = np.empty_like(order)  # layout position of each measurement
    slots[np.argsort(rank[walsh], kind="stable")] = np.arange(order.size)

    # U = the layout as four c x c tiles; the shared rows end the last one
    c = side // 2
    shape = (4, c, c)
    tiles = np.zeros(shape)
    shared_rows = sum(size for size in sizes if size < c) // c
    row_factors = np.zeros((shared_rows, c, c))
    for start, size in zip(np.cumsum([0] + sizes), sizes):
        q, row = divmod(start // c, c)
        if size >= c:
            n = size // c
            tiles[q, row : row + n, row : row + n] = _hadamard(n)
        else:
            at = start % c
            row_factors[row - (c - shared_rows), at : at + size, at : at + size] = _hadamard(size)
    factors = tuple(map(_frozen, (_hadamard(c), tiles, row_factors)))
    tail = (3, slice(c - shared_rows, c), None, slice(None))  # shared rows as 1 x c

    def blocks(u, out, tmp, right, left, row_right):
        """B u into `out`, both (4, c, c), through `tmp`."""
        np.matmul(u, right, out=tmp)
        np.matmul(left, tmp, out=out)
        if shared_rows:
            np.matmul(u[tail], row_right, out=out[tail])

    def projector(rows, y):
        rows = slots[rows]
        dtype = np.result_type(y, float)
        right, left, row_right = (np.asarray(m, dtype) for m in factors)  # complex copies once
        w = np.empty(shape, dtype)
        tmp = np.empty_like(w)

        def project(v, out):
            blocks(v, w, tmp, right, left, row_right)
            w.reshape(-1)[rows] = y
            blocks(w, out, tmp, right, left, row_right)

        return project

    return SolverPlan(_frozen(order), shape, projector)


def _identity_plan(spec: OperatorSpec) -> SolverPlan:
    """The identity layout; its projection runs the stages of `apply` as
    `measure` and `adjoint_measure` do: the residual A0 v - y on the
    measured rows, zero elsewhere, in `out`, then v - A0* out."""

    def projector(rows, y):
        forward, adjoint = _stages(spec)

        def project(v, out):
            out.fill(0)
            out[rows] = forward(v)[rows] - y
            np.subtract(v, adjoint(out), out=out)

        return project

    return SolverPlan(_frozen(np.arange(spec.dim)), (spec.dim,), projector)


@lru_cache(maxsize=_SPECS_KEPT)
def solver_plan(spec: OperatorSpec) -> SolverPlan:
    """The layout basis pursuit iterates in, kept for the last `_SPECS_KEPT` specs.

    Hadamard2D x Haar MRA gets its per-subband Walsh blocks
    (`_walsh_haar_plan`), whose projection runs every transform in place
    around one assignment of y; every other operator the identity layout
    with the stages of `apply` (`_identity_plan`).  Each plan's
    `projector` takes the mask's rows in measurement order and one
    measurement vector, maps the rows to its layout itself and builds the
    projection once per solve, with its own buffers.
    """
    if spec.measurement == Measurement.HADAMARD2D and spec.sparsity == Sparsity.HAAR2D:
        return _walsh_haar_plan(spec)
    return _identity_plan(spec)


def apply(spec: OperatorSpec, direction: Direction, x: np.ndarray) -> np.ndarray:
    """Apply A0 (Forward) or A0* (Adjoint) to vectors along the last axis.

    Forward computes Phi(Psi* x); Adjoint computes Psi(Phi* y).  Both are
    exact inverses of each other up to floating point roundoff.  A
    direction that is not a `Direction` member (a string too) is an
    InvalidSpec.
    """
    if not isinstance(direction, Direction):
        raise InvalidSpec(f"direction must be a Direction member, got {direction!r}")
    x = np.asarray(x)
    if x.shape[-1:] != (spec.dim,):
        raise DimensionMismatch(f"expected last axis {spec.dim}, got shape {x.shape}")
    return _stages(spec)[direction is Direction.ADJOINT](x)


def rows_batch(spec: OperatorSpec, indices) -> np.ndarray:
    """Rows a_k of A0 for the given indices, stacked as a matrix.

    Computed as conj(A0* e_k), one adjoint transform per batch; no dense
    K x K matrix is formed.  Indices other than a 1-D integer array (or an
    empty list) are a DimensionMismatch.
    """
    indices = _check_indices(indices, "row indices", DimensionMismatch).astype(np.int64)
    if indices.size and (indices.min() < 0 or indices.max() >= spec.dim):
        raise DimensionMismatch("row index out of range")
    slab = np.zeros((len(indices), spec.dim))
    slab[np.arange(len(indices)), indices] = 1.0
    rows = apply(spec, Direction.ADJOINT, slab)
    return np.conjugate(rows, out=rows)


def signed_frequencies(side: int) -> np.ndarray:
    """Signed DFT frequency of each storage index: 0..side/2, then negative."""
    f = np.arange(side)
    return np.where(f <= side // 2, f, f - side)
