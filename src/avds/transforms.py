"""Unitary transforms for the composite operator A0 = Phi Psi*.

Phi is the measurement transform (identity, 1D/2D unitary DFT, 2D
Walsh-Hadamard in Sylvester order) and Psi the sparsity analysis transform
(identity, periodic orthonormal Haar/DB4 wavelets in 1D, square multilevel
MRA in 2D, or the separable tensor construction psi (x) psi).

Each wavelet is described once, as a periodic two-channel filter bank run
by index gathers (`_filter_bank`): per level, a cached (taps, n/2) index
array and the filters give the analysis step, and the transposed gather
its synthesis, O(taps) work per entry.  A 1D wavelet runs these gathers
level by level next to the 1D DFT (numpy.fft).  A 2D operator multiplies
by cached dense per-axis factors built from them: the Hadamard matrix H
(Sylvester recursion), the single-level step S_n and the multilevel
analysis W_n, each the gather applied to the identity.  It folds its real
per-axis measurement M (H, or I for the identity and the DFT) into its
outermost wavelet factor, one composite F = M W_out^T per axis, where
W_out is all of W for a tensor wavelet, the finest step S_side for the
square MRA and I without a wavelet.  The forward transform runs the
remaining MRA levels J..2 as S_s^T X S_s on the shrinking s x s LL block,
then F X F^T, then the DFT; the adjoint runs the inverse DFT, F^T Y F,
then the levels 2..J.  2D factors are side x side arrays (O(side^3) work
per grid).  All stages act on the trailing axis/axes of their input, so
batches of vectors transform in one call.  Operators are limited to
K <= MAX_DIM = 2^20.

2D objects are vectorised column-major: flat index r of a side x side grid
maps to (row, col) = (r % side, r // side).

`energy_classes` labels the columns of A0 by wavelet subband where the
modulus |a_{k,l}|^2 depends on l only through that label (DFT with any
wavelet, Hadamard with Haar), and returns None for the other pairs.

Hadamard with the Haar MRA is more than that: Sylvester order and the Haar
step satisfy H_n S_n^T = R_n diag(H_{n/2}, H_{n/2}), with R_n interleaving
rows, so at every level A0 is a fixed permutation of a block-diagonal
matrix, one Walsh-Hadamard block H_s (x) H_s per s x s subband (each block
one energy class).  `solver_plan` gives basis pursuit the layout to iterate
in: for this operator the subbands as contiguous blocks, the whole block
operator two matrix products, since H_s (x) H_s = H_{s^2/c} (x) H_c with
c = side/2 (about 262k multiply-adds in two calls per transform at side 64
and J = 3, against 598k for the dense factors); for every other operator
the identity layout with the stages of `apply`, resolved once per spec.
`apply` itself keeps the dense factors: per call the two gathers into and
out of the block layout cost more than they save.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import log2, sqrt
from typing import Callable, NamedTuple

import numpy as np

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
        meas = Measurement(self.measurement)
        spar = Sparsity(self.sparsity)
        object.__setattr__(self, "measurement", meas)
        object.__setattr__(self, "sparsity", spar)
        if not _is_pow2(self.size) or self.size < 2:
            raise InvalidSpec(f"size must be a power of two >= 2, got {self.size}")
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


# ----------------------------------------------------------------------
# cached arrays, shared read-only by every caller

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
    y = np.array(x, dtype=np.float64)
    n = y.shape[-1]
    for _ in range(levels):
        index, filters = _filter_bank(name, n)[:2]
        y[..., :n] = (filters @ np.take(y, index, axis=-1)).reshape(y.shape[:-1] + (n,))
        n //= 2
    return y


def _synthesis(name: str, y: np.ndarray, levels: int) -> np.ndarray:
    """Inverse (and transpose) of `_analysis`, coarsest level first."""
    x = np.array(y, dtype=np.float64)
    n = x.shape[-1] >> (levels - 1)
    for _ in range(levels):
        index, filters = _filter_bank(name, n)[2:]
        parity = filters @ np.take(x, index, axis=-1)  # (..., 2, n/2)
        x[..., 0:n:2] = parity[..., 0, :]
        x[..., 1:n:2] = parity[..., 1, :]
        n *= 2
    return x


@lru_cache(maxsize=None)
def _wavelet_factor(name: str, n: int, levels: int) -> np.ndarray:
    """Dense multilevel analysis matrix W_n, the analysis of every e_l.

    For the side of a 2D grid; a 1D signal runs the gathers directly.
    """
    return _frozen(np.ascontiguousarray(_analysis(name, np.eye(n), levels).T))


@lru_cache(maxsize=None)
def _hadamard(n: int) -> np.ndarray:
    """Orthonormal Walsh-Hadamard matrix in Sylvester order (symmetric)."""
    h = np.ones((1, 1))
    while len(h) < n:
        h = np.block([[h, h], [h, -h]])
    return _frozen(h / sqrt(n))


def _with_transpose(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mat, mat^T), both C-contiguous: BLAS reads a transposed view slower."""
    return _frozen(np.ascontiguousarray(mat)), _frozen(np.ascontiguousarray(mat.T))


@lru_cache(maxsize=None)
def _step_pair(name: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    return _with_transpose(_wavelet_factor(name, n, 1))


def _sandwich(pair, img: np.ndarray, transpose: bool, out=None) -> np.ndarray:
    """F X F^T, or F^T X F if `transpose`, on the trailing two axes; pair = (F, F^T)."""
    left, right = pair[::-1] if transpose else pair
    return np.matmul(left, img @ right, out=out)


def _grid(x: np.ndarray, side: int) -> np.ndarray:
    """(..., side, side) view of vectorised grids, each one transposed.

    Every 2D stage applies the same transform to both axes, so it may act
    on the transposed grid: (F X F^T)^T = F X^T F^T.  The column-major
    vectorisation then reduces to a plain reshape.
    """
    return x.reshape(x.shape[:-1] + (side, side))


# ----------------------------------------------------------------------
# stages: every stage but the DFT multiplies by real factors

@lru_cache(maxsize=None)
def _grid_factors(spec: OperatorSpec) -> tuple:
    """Factors of the real 2D stages: the outer pair (F, F^T), then the
    pairs (S_s, S_s^T) of the square-MRA levels inside F, finest first.

    F = M W_out^T per axis.  M is the real measurement: the Hadamard
    matrix, or the identity for the identity and DFT measurements (the DFT
    runs on numpy.fft outside these stages).  W_out is the outermost
    wavelet analysis: all of W for a tensor wavelet, only the finest step
    S_side for the square MRA, the identity without a wavelet.  The outer
    pair is None when F = I.
    """
    side, spar = spec.side, spec.sparsity
    factor = _hadamard(side) if spec.measurement == Measurement.HADAMARD2D else None
    inner = ()
    if spar != Sparsity.IDENTITY:
        name, levels = _WAVELET_NAME[spar], spec.levels
        if spar in _MRA_SPARSITIES:
            inner = tuple(_step_pair(name, side >> j) for j in range(1, levels))
            levels = 1
        w_t = _wavelet_factor(name, side, levels).T
        factor = w_t if factor is None else factor @ w_t
    return (None if factor is None else _with_transpose(factor)), inner


def _grid_stages(factors: tuple, x: np.ndarray, forward: bool) -> np.ndarray:
    """Forward: the MRA levels J..2 on the shrinking LL block, then F X F^T.
    Adjoint: F^T Y F, then the levels 2..J."""
    outer, inner = factors
    img = _grid(x, outer[0].shape[0])
    if not forward:
        img = _sandwich(outer, img, transpose=True)
    if inner:
        # the levels run in place: copy the caller's array, not F^T Y F
        img = img.astype(np.float64, copy=forward)
        for pair in inner[::-1] if forward else inner:
            block = img[..., : len(pair[0]), : len(pair[0])]
            _sandwich(pair, block, transpose=forward, out=block)
    if forward:
        img = _sandwich(outer, img, transpose=False)
    return img.reshape(x.shape)


def _split_complex(stage):
    """`stage` on real input; on complex input, two real passes.

    The factors are real: two real passes cost half of one complex pass.
    Their results fill the parts of one complex array.
    """

    def run(x):
        if not np.iscomplexobj(x):
            return stage(x)
        real = stage(x.real)
        out = np.empty(real.shape, dtype=np.result_type(real, 1j))
        out.real = real
        out.imag = stage(x.imag)
        return out

    return run


def _dft(spec: OperatorSpec, x: np.ndarray, forward: bool) -> np.ndarray:
    if not spec.is_2d:
        return (np.fft.fft if forward else np.fft.ifft)(x, norm="ortho")
    fn = np.fft.fft2 if forward else np.fft.ifft2
    return fn(_grid(x, spec.side), norm="ortho").reshape(x.shape)


@lru_cache(maxsize=None)
def _stages(spec: OperatorSpec, forward: bool):
    """`apply` for one spec and direction, its stages resolved once.

    Forward: the real stages (2D factors or 1D synthesis), then the DFT;
    adjoint: the inverse DFT, then the real stages (2D factors or 1D
    analysis).  Either may be absent.
    """
    real = None
    if spec.is_2d:
        factors = _grid_factors(spec)
        if factors[0] is not None:
            def real(v):
                return _grid_stages(factors, v, forward)
    elif spec.sparsity != Sparsity.IDENTITY:
        name, levels = _WAVELET_NAME[spec.sparsity], spec.levels
        transform = _synthesis if forward else _analysis  # Psi* x, Psi y

        def real(v):
            return transform(name, v, levels)
    steps = [] if real is None else [_split_complex(real)]
    if spec.measurement in (Measurement.DFT1D, Measurement.DFT2D):
        def dft(v):
            return _dft(spec, v, forward)
        steps.insert(len(steps) if forward else 0, dft)

    def run(x):
        for step in steps:
            x = step(x)
        return x

    return run


def separable_factor(spec: OperatorSpec) -> np.ndarray | None:
    """Dense 1D factor phi with A0 = phi (x) phi, or None if non-separable.

    phi is the outer factor F = M W^T of `apply`, times the orthonormal
    DFT matrix for the DFT measurement.
    """
    if not spec.is_2d or spec.sparsity in _MRA_SPARSITIES:
        return None
    outer = _grid_factors(spec)[0]
    phi = np.eye(spec.side) if outer is None else outer[0]
    if spec.measurement == Measurement.DFT2D:
        return np.fft.fft(phi, axis=0, norm="ortho")
    return np.array(phi)


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


class SolverPlan(NamedTuple):
    """A0 in the coefficient layout the solver iterates in.

    A0 x = (forward(x[..., order]))[..., slots]: `order[i]` is the
    coefficient at layout position i and `slots[k]` the layout position of
    measurement k.  `adjoint` is the adjoint of `forward`.
    """

    order: np.ndarray
    slots: np.ndarray
    forward: Callable[[np.ndarray], np.ndarray]
    adjoint: Callable[[np.ndarray], np.ndarray]


def _walsh_haar_plan(spec: OperatorSpec) -> SolverPlan:
    """Hadamard2D x Haar MRA as one Walsh-Hadamard block per subband.

    Sylvester order and the Haar step satisfy H_n S_n^T = R_n
    diag(H_{n/2}, H_{n/2}), R_n sending row k of the first half to 2k and
    row k of the second to 2k + 1: the Hadamard transform of a Haar
    synthesis is the Hadamard transforms of its two halves, interleaved.  At every MRA
    level the three detail quadrants stop there and the LL block recurses,
    so A0 maps each s x s subband B to H_s B H_s and places the result on
    its own set of measurements: measurement (a, b) lies in the quadrant
    of the first level t at which a or b is odd, at ((a >> t) & 1,
    (b >> t) & 1), entry (a >> t + 1, b >> t + 1), or in LL_J at
    (a >> J, b >> J).

    The layout holds the subbands as contiguous s x s blocks, finest
    first, LL_J last.  Block B (row-major) maps to H_s B H_s, which is
    H_s (x) H_s = H_{s^2} on its vector, and in Sylvester order H_{s^2} =
    H_{s^2/c} (x) H_c for every power of two c <= s^2.  With c = side/2
    the layout is a (2 side, c) matrix U, and the whole operator is two
    products, T U H_c: one shared H_c on the right, and on the left T, a
    stack of four (side/2)-square tiles, each block-diagonal with the
    H_{s^2/c} of the subbands in its rows.  Blocks are finest first with
    power-of-two sizes, so none straddles a tile.  Subbands with s^2 < c
    share rows: the last 4 (side >> j0)^2 entries, one or two rows, j0
    the first such level.  Those rows take one block-diagonal product of
    their own, and zeros in their tile.  At side 64, J = 3 this is 262k
    multiply-adds in two matrix products, against 225k in six for one
    H_s B H_s stack per side: more multiply-adds in fewer calls.  The block operator is
    real, symmetric and its own inverse, so it is its own adjoint.
    """
    side, levels = spec.side, spec.levels
    order, sizes = [], []
    for j in range(1, levels + 1):
        s = side >> j
        corners = ((s, 0), (0, s), (s, s), (0, 0))[: 3 + (j == levels)]
        i = np.arange(s)
        order += [((r + i)[:, None] * side + c + i).ravel() for r, c in corners]
        sizes += [s * s] * len(corners)
    order = np.concatenate(order)
    position = np.empty_like(order)
    position[order] = np.arange(order.size)

    # grid cell (a, b) of flat index a * side + b; both axes transform alike
    a, b = np.divmod(np.arange(side * side), side)
    low = a | b | (1 << levels)
    t = np.frexp(low & -low)[1] - 1  # trailing zeros, at most J
    coarsest = t == levels
    half = side >> (t + 1)
    cell = [
        np.where(coarsest, v >> levels, ((v >> t) & 1) * half + (v >> (t + 1)))
        for v in (a, b)
    ]
    slots = position[cell[0] * side + cell[1]]

    # U = the layout as a (2 side, c) matrix, split into four tiles of rows
    c = side // 2
    tiles = np.zeros((4, c, c))
    shared = sum(size for size in sizes if size < c)  # entries in the last rows
    diagonal = np.zeros((shared, shared))
    start = 0
    for size in sizes:
        if size >= c:
            n, (q, row) = size // c, divmod(start // c, c)
            tiles[q, row : row + n, row : row + n] = _hadamard(n)
        else:
            at = start - (order.size - shared)
            diagonal[at : at + size, at : at + size] = _hadamard(size)
        start += size
    factors = (_frozen(tiles), _hadamard(c))
    diagonal = _frozen(diagonal)

    def blocks(u):
        shape = u.shape[:-1] + (4, c, c)
        out = _sandwich(factors, u.reshape(shape), False, out=np.empty(shape))
        out = out.reshape(u.shape)
        if shared:
            np.matmul(u[..., -shared:], diagonal, out=out[..., -shared:])
        return out

    blocks = _split_complex(blocks)
    return SolverPlan(_frozen(order), _frozen(slots), blocks, blocks)


@lru_cache(maxsize=None)
def solver_plan(spec: OperatorSpec) -> SolverPlan:
    """The layout basis pursuit iterates in, resolved once per spec.

    Hadamard2D x Haar MRA gets its per-subband Walsh blocks
    (`_walsh_haar_plan`); every other operator the identity layout with
    the stages of `apply`.
    """
    if spec.measurement == Measurement.HADAMARD2D and spec.sparsity == Sparsity.HAAR2D:
        return _walsh_haar_plan(spec)
    identity = _frozen(np.arange(spec.dim))
    return SolverPlan(identity, identity, _stages(spec, True), _stages(spec, False))


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
    return _stages(spec, direction == Direction.FORWARD)(x)


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
    rows = apply(spec, Direction.ADJOINT, slab)
    return np.conjugate(rows, out=rows)


def signed_frequencies(side: int) -> np.ndarray:
    """Signed DFT frequency of each storage index: 0..side/2, then negative."""
    f = np.arange(side)
    return np.where(f <= side // 2, f, f - side)
