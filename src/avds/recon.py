"""Measurement operators and equality-constrained basis pursuit.

The solver minimises the mu-smoothed l1 objective (Huber) with Nesterov
acceleration over the affine set {x : Ax = y}, using the exact projection
x - A*(Ax - y) available when the selected rows are orthonormal
(A A* = I), and continuation that shrinks mu geometrically down to its
configured final value.

The iteration runs in the layout of `transforms.solver_plan`, entered once
and left once per solve, in buffers allocated once: per-subband
Walsh-Hadamard blocks for Hadamard2D x Haar MRA, the identity layout with
the stages of `apply` for every other operator.  The projection runs on
the full layout: A0 v times a 0/1 vector of the mask rows, minus y
scattered into the layout once, so no iteration gathers or scatters.  The
stopping window takes the Huber objective from two dot products; the
reported stage objectives keep the direct formula.  The window value can
differ from the direct formula in its last digits, so a stage may stop at
another iteration than a window of direct values would.  x0 = A* y and the
final residual come from `adjoint_measure` and `measure`, so the dense
path checks the feasibility of the answer independently.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass
from math import sqrt

import numpy as np

from .errors import DimensionMismatch, UnsupportedSolver
from .masks import Mask
from .transforms import Direction, OperatorSpec, apply, solver_plan


@dataclass
class MeasurementOp:
    """Row-subsampled composite operator A: the mask's rows of the unitary A0.

    A distinct mask yields A A* = I.  A mask with repeated rows (i.i.d.
    draws) keeps each row once, so A is not orthonormal and the solver
    rejects it.
    """

    spec: OperatorSpec
    mask: Mask

    @property
    def is_orthonormal(self) -> bool:
        return bool(np.all(self.mask.multiplicities == 1))

    @property
    def dim(self) -> int:
        return self.spec.dim


def measure(x: np.ndarray, op: MeasurementOp) -> np.ndarray:
    """y = A x via fast transforms plus row selection."""
    x = np.asarray(x)
    if x.shape[-1] != op.dim:
        raise DimensionMismatch(f"expected length {op.dim}, got {x.shape[-1]}")
    z = apply(op.spec, Direction.FORWARD, x)
    return z[..., op.mask.indices]


def adjoint_measure(y: np.ndarray, op: MeasurementOp) -> np.ndarray:
    """x = A* y (scatter to the masked rows, then the adjoint transform)."""
    y = np.asarray(y)
    if y.shape[-1] != op.mask.size:
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
        if min(self.continuation_steps, self.max_inner) < 1 or min(
            self.final_mu_factor, self.inner_tol
        ) <= 0:
            raise UnsupportedSolver("solver parameters must be positive")


@dataclass
class BPResult:
    x: np.ndarray
    converged: bool
    inner_iterations: int
    residual: float
    stage_objectives: list


def _huber_objective(x: np.ndarray, mu: float, mag, quad, small) -> float:
    """sum(|x|^2 / (2 mu) where |x| < mu, else |x| - mu / 2), in the given buffers."""
    np.abs(x, out=mag)
    np.less(mag, mu, out=small)
    np.multiply(mag, mag, out=quad)
    np.divide(quad, 2 * mu, out=quad)
    np.subtract(mag, mu / 2, out=mag)
    np.putmask(mag, small, quad)
    return float(np.add.reduce(mag, axis=None))


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
    returned point satisfies the constraint to roundoff.
    """
    if params is None:
        params = SolverParams()
    if not op.is_orthonormal:
        raise UnsupportedSolver(
            "solve_bp needs an unscaled operator over a distinct mask (A A* = I)"
        )
    y = np.asarray(y)
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
    rows = plan.slots[op.mask.indices]
    keep = np.zeros(x0.shape[-1])
    keep[rows] = 1.0
    y_layout = np.zeros_like(x0)
    y_layout[..., rows] = y
    x = x0[..., plan.order]
    x_new, z, step, gap = (np.empty_like(x) for _ in range(4))
    mag, quad = np.empty(x.shape), np.empty(x.shape)
    small = np.empty(x.shape, dtype=bool)

    total_iters = 0
    converged = True
    stage_objectives = []
    for mu in mus:
        np.copyto(z, x)
        t = 1.0
        window: deque = deque(maxlen=10)
        stage_converged = False
        for _ in range(params.max_inner):
            # z - mu * grad of the Huber objective at z
            np.abs(z, out=mag)
            np.maximum(mag, mu, out=mag)
            np.divide(z, mag, out=step)
            np.multiply(step, mu, out=step)
            np.subtract(z, step, out=step)
            # project onto {x : Ax = y}: v - A*(Av - y), Av - y kept on the mask rows
            np.multiply(plan.forward(step), keep, out=gap)
            np.subtract(gap, y_layout, out=gap)
            np.subtract(step, plan.adjoint(gap), out=x_new)
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
        stage_objectives.append(_huber_objective(x, float(mus[-1]), mag, quad, small))
        converged = converged and stage_converged
    x_out = np.empty_like(x)
    x_out[..., plan.order] = x
    residual = float(np.linalg.norm(measure(x_out, op) - y))
    if not converged:
        warnings.warn(
            f"solve_bp hit the iteration cap; constraint residual {residual:.3e}",
            RuntimeWarning,
            stacklevel=2,
        )
    return BPResult(x_out, converged, total_iters, residual, stage_objectives)
