"""Measurement operators and equality-constrained basis pursuit.

The solver minimises the mu-smoothed l1 objective (Huber) with Nesterov
acceleration over the affine set {x : Ax = y}, using the exact projection
x - A*(Ax - y) available when the selected rows are orthonormal
(A A* = I), and continuation that shrinks mu geometrically down to its
configured final value.

A solve is one problem: `solve_bp` takes one measurement vector y.  The
iteration runs in the layout of `transforms.solver_plan`, entered once
and left once per solve, in buffers allocated once: per-subband
Walsh-Hadamard blocks for Hadamard2D x Haar MRA, the identity layout with
the stages of `apply` for every other operator.  The plan owns the
projection: `plan.projector(op.mask.indices, y)` builds `project(v, out)`
once per solve, from the mask's rows in measurement order, with buffers
of its own.  On the Walsh blocks, which are their own inverse, it
computes B(where(keep, y, B v)), writing every matrix product into those
buffers and assigning y to the measured rows between the two transforms,
for real and complex iterates alike; on the identity layout it computes
v - A*(Av - y) as `tests/reference_recon.py` does, writing the residual
of the measured rows into `out` before the adjoint transform.  A real
iterate shrinks as z - clip(z, -mu, mu), a complex one as
z - mu z / max(|z|, mu).  The stopping window takes the Huber objective
from two dot products; the reported stage objectives keep the direct
formula.  The window value can differ from the direct formula in its last
digits, so a stage may stop at another iteration than a window of direct
values would.  x0 = A* y and the final residual come from
`adjoint_measure` and `measure`, so the dense path checks the feasibility
of the answer independently.  Measurements must be finite and the mask
rows distinct; otherwise `solve_bp` raises `UnsupportedSolver` before it
iterates.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass
from math import inf, sqrt
from numbers import Real

import numpy as np

from .errors import DimensionMismatch, UnsupportedSolver, _check_count
from .masks import Mask
from .transforms import Direction, OperatorSpec, apply, solver_plan


@dataclass
class MeasurementOp:
    """Row-subsampled composite operator A: the mask's rows of the unitary A0.

    A distinct mask yields A A* = I.  The solver rejects the others: a
    mask with repeated draws (i.i.d. multiplicities) keeps each row once,
    so A is not the drawn operator, and an index listed twice repeats a
    row of A, so A A* != I.
    """

    spec: OperatorSpec
    mask: Mask

    def __post_init__(self) -> None:
        idx = self.mask.indices
        if idx.size and (idx.min() < 0 or idx.max() >= self.spec.dim):
            raise DimensionMismatch(f"mask indices must lie in [0, {self.spec.dim})")

    @property
    def is_orthonormal(self) -> bool:
        idx = np.sort(self.mask.indices)  # np.unique would import numpy.ma, 1 MB resident
        return bool(np.all(self.mask.multiplicities == 1) and np.all(idx[1:] != idx[:-1]))

    @property
    def dim(self) -> int:
        return self.spec.dim


def measure(x: np.ndarray, op: MeasurementOp) -> np.ndarray:
    """y = A x via fast transforms plus row selection."""
    x = np.asarray(x)
    if x.shape[-1:] != (op.dim,):
        raise DimensionMismatch(f"expected last axis {op.dim}, got shape {x.shape}")
    z = apply(op.spec, Direction.FORWARD, x)
    return z[..., op.mask.indices]


def adjoint_measure(y: np.ndarray, op: MeasurementOp) -> np.ndarray:
    """x = A* y (scatter to the masked rows, then the adjoint transform)."""
    y = np.asarray(y)
    if y.shape[-1:] != (op.mask.size,):
        raise DimensionMismatch("measurement length does not match the mask")
    z = np.zeros(y.shape[:-1] + (op.dim,), dtype=np.result_type(y.dtype, float))
    z[..., op.mask.indices] = y
    return apply(op.spec, Direction.ADJOINT, z)


@dataclass(frozen=True)
class SolverParams:
    continuation_steps: int = 5
    final_mu_factor: float = 1e-6   # final mu = factor * max|A* y|
    inner_tol: float = 1e-7         # relative objective variation window
    max_inner: int = 3000

    def __post_init__(self) -> None:
        for name in ("continuation_steps", "max_inner"):
            count = _check_count(getattr(self, name), f"finite count {name}", 1, UnsupportedSolver)
            object.__setattr__(self, name, count)  # a numpy integer would not serialise
        scales = (self.final_mu_factor, self.inner_tol)
        # as ranges, so that NaN, which fails every comparison, fails the check
        if any(isinstance(v, bool) or not isinstance(v, Real) or not 0 < v < inf for v in scales):
            raise UnsupportedSolver(f"solver scales must be finite and positive: {self}")


@dataclass
class BPResult:
    x: np.ndarray
    converged: bool
    inner_iterations: int
    residual: float
    stage_objectives: list


def _huber_objective(x: np.ndarray, mu: float) -> float:
    """sum(|x|^2 / (2 mu) where |x| < mu, else |x| - mu / 2)."""
    a = np.abs(x)
    return float(np.where(a < mu, a * a / (2 * mu), a - mu / 2).sum())


def _window_objective(x: np.ndarray, mu: float, mag, low) -> float:
    """`_huber_objective` from two dot products, in the given buffers.

    With a = |x| and q = min(a, mu), the sum is (2<a, q> - <q, q>) / (2 mu):
    each term q (2a - q) >= 0, so nothing cancels.  It may differ from
    `_huber_objective` in the last digits, so it serves only the stopping
    window.
    """
    np.abs(x, out=mag)
    np.minimum(mag, mu, out=low)
    return float(2.0 * np.vdot(mag, low) - np.vdot(low, low)) / (2.0 * mu)


def solve_bp(y: np.ndarray, op: MeasurementOp, params: SolverParams | None = None) -> BPResult:
    """Approximately minimise ||x||_1 subject to A x = y.

    Requires an orthonormal operator (unscaled, distinct mask) so that the
    affine projection is exact; every iterate is feasible, hence the
    returned point satisfies the constraint to roundoff.  Raises
    `DimensionMismatch` unless y is one measurement vector, and
    `UnsupportedSolver` for another operator or non-finite measurements.
    """
    if params is None:
        params = SolverParams()
    if not op.is_orthonormal:
        raise UnsupportedSolver(
            "solve_bp needs an unscaled operator over a distinct mask (A A* = I)"
        )
    y = np.asarray(y)
    if y.ndim != 1:
        raise DimensionMismatch(f"solve_bp takes one measurement vector, got shape {y.shape}")
    if not np.all(np.isfinite(y)):
        raise UnsupportedSolver("solve_bp needs finite measurements")
    x0 = adjoint_measure(y, op)
    peak = float(np.max(np.abs(x0))) if x0.size else 0.0
    if peak == 0.0:
        return BPResult(np.zeros_like(x0), True, 0, 0.0, [])

    mu_first = 0.9 * peak
    mu_last = params.final_mu_factor * peak
    n_stage = params.continuation_steps
    if n_stage == 1:
        mus = np.array([mu_last])
    else:
        mus = np.geomspace(mu_first, mu_last, n_stage)

    plan = solver_plan(op.spec)
    project = plan.projector(op.mask.indices, y)
    x = x0[plan.order].reshape(plan.shape)
    x_new, z, step = (np.empty_like(x) for _ in range(3))
    mag, quad = np.empty(x.shape), np.empty(x.shape)
    real = not np.iscomplexobj(x)

    total_iters = 0
    converged = True
    stage_objectives = []
    for mu in mus:
        np.copyto(z, x)
        t = 1.0
        window: deque = deque(maxlen=10)
        stage_converged = False
        for _ in range(params.max_inner):
            # z - mu * grad of the Huber objective at z: z - clip(z, -mu, mu)
            # when real, z - mu z / max(|z|, mu) when complex
            if real:
                np.minimum(z, mu, out=step)
                np.maximum(step, -mu, out=step)
            else:
                np.abs(z, out=mag)
                np.maximum(mag, mu, out=mag)
                np.divide(z, mag, out=step)
                np.multiply(step, mu, out=step)
            np.subtract(z, step, out=step)
            project(step, x_new)  # onto {x : Ax = y}
            t_new = 0.5 * (1.0 + sqrt(1.0 + 4.0 * t * t))
            np.subtract(x_new, x, out=z)
            np.multiply(z, (t - 1.0) / t_new, out=z)
            np.add(x_new, z, out=z)
            x, x_new, t = x_new, x, t_new
            total_iters += 1
            window.append(_window_objective(x, mu, mag, quad))
            if len(window) == window.maxlen:
                spread = max(window) - min(window)
                if spread <= params.inner_tol * max(abs(window[-1]), 1e-30):
                    stage_converged = True
                    break
        stage_objectives.append(_huber_objective(x, float(mus[-1])))
        converged = converged and stage_converged
    x_out = np.empty_like(x0)
    x_out[plan.order] = x.ravel()
    residual = float(np.linalg.norm(measure(x_out, op) - y))
    if not converged:
        warnings.warn(
            f"solve_bp hit the iteration cap; constraint residual {residual:.3e}",
            RuntimeWarning,
            stacklevel=2,
        )
    return BPResult(x_out, converged, total_iters, residual, stage_objectives)
