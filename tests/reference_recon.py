"""Reference basis pursuit solver and dual certificate, test use only.

`reference_solve_bp` is `avds.recon.solve_bp` as it was before the solver
iterated in the per-spec layout of `avds.transforms.solver_plan`: one
`measure` and one `adjoint_measure` call per projection, fresh arrays
every step.  The layout solver must match it bit for bit where the layout
is the identity, and to roundoff on Hadamard2D x Haar MRA.  Its stopping
window reads `_huber_objective`, the direct Huber formula, which
`avds.recon._window_objective` must match to roundoff.

`check_fuchs` is the Fuchs dual certificate, the independent oracle for
which planted signals basis pursuit must recover.
"""

from __future__ import annotations

import warnings
from collections import deque

import numpy as np

from avds.errors import AvdsError, DimensionMismatch, UnsupportedSolver
from avds.masks import Mask
from avds.recon import BPResult, MeasurementOp, SolverParams, adjoint_measure, measure
from avds.transforms import Direction, OperatorSpec, apply


class SingularGram(AvdsError):
    """Gram matrix of the support columns is numerically singular."""


def _huber_objective(x: np.ndarray, mu: float) -> float:
    a = np.abs(x)
    small = a < mu
    return float(np.where(small, a * a / (2 * mu), a - mu / 2).sum())


def reference_solve_bp(
    y: np.ndarray, op: MeasurementOp, params: SolverParams | None = None
) -> BPResult:
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
        return BPResult(np.zeros_like(x0), True, 0, 0.0)

    mu_first = 0.9 * peak
    mu_last = params.final_mu_factor * peak
    n_stage = params.continuation_steps
    if n_stage == 1:
        mus = np.array([mu_last])
    else:
        mus = np.geomspace(mu_first, mu_last, n_stage)

    def project(v):
        return v - adjoint_measure(measure(v, op) - y, op)

    x = x0
    total_iters = 0
    converged = True
    for mu in mus:
        z = x
        t = 1.0
        window: deque = deque(maxlen=10)
        stage_converged = False
        for _ in range(params.max_inner):
            grad = z / np.maximum(np.abs(z), mu)
            x_new = project(z - mu * grad)
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            z = x_new + ((t - 1.0) / t_new) * (x_new - x)
            x, t = x_new, t_new
            total_iters += 1
            f = _huber_objective(x, mu)
            window.append(f)
            if len(window) == window.maxlen:
                spread = max(window) - min(window)
                if spread <= params.inner_tol * max(abs(window[-1]), 1e-30):
                    stage_converged = True
                    break
        converged = converged and stage_converged
    residual = float(np.linalg.norm(measure(x, op) - y))
    if not converged:
        warnings.warn(
            f"solve_bp hit the iteration cap; constraint residual {residual:.3e}",
            RuntimeWarning,
            stacklevel=2,
        )
    return BPResult(x, converged, total_iters, residual)


def check_fuchs(spec: OperatorSpec, mask: Mask, support, signs) -> float:
    """Fuchs dual-certificate norm ||A_{I^c}* A_I (A_I* A_I)^{-1} s_I||_inf.

    A value below 1 certifies that the planted signal is the unique basis
    pursuit solution; used as the independent oracle for the solver.
    Columns are built by forward transforms, so no dense operator is
    formed.
    """
    support = np.asarray(support, dtype=np.int64)
    signs = np.asarray(signs)
    if signs.shape[-1] != support.size:
        raise DimensionMismatch("one sign per support index is required")
    if support.size > mask.size:
        raise SingularGram("support larger than the number of measurements")
    k_total = spec.dim
    slab = np.zeros((support.size, k_total))
    slab[np.arange(support.size), support] = 1.0
    cols = apply(spec, Direction.FORWARD, slab)[:, mask.indices].T  # (m, S)
    gram = cols.conj().T @ cols
    try:
        # gram = L L*: w solves L z = s, then L* w = z
        low = np.linalg.cholesky(gram)
        w = np.linalg.solve(low.conj().T, np.linalg.solve(low, signs.astype(complex)))
    except np.linalg.LinAlgError as exc:
        raise SingularGram("A_I* A_I is singular (undersampled support)") from exc
    u = cols @ w  # (m,)
    z = np.zeros(k_total, dtype=complex)
    z[mask.indices] = u
    v = apply(spec, Direction.ADJOINT, z)
    off = np.ones(k_total, dtype=bool)
    off[support] = False
    return float(np.max(np.abs(v[off]))) if off.any() else 0.0
