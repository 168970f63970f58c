"""`recon.solve_bp` against the reference solver it replaced.

`tests/reference_recon.py` holds the solver as it was before it iterated
in the layout of `transforms.solver_plan`.  Where that layout is the
identity and the iterate is complex, the two must agree bit for bit: x,
iterations, stage objectives and residual.  A real iterate shrinks as
z - clip(z, -mu, mu), which rounds differently from the reference's
z - mu z / max(|z|, mu), so it agrees to roundoff: equal iterations and
convergence, x and stage objectives within 1e-12 relative, and a residual
within 1e-9 ||y||.  On Hadamard2D x Haar MRA the iteration runs on Walsh
blocks in another order, real or complex, so it agrees to roundoff: equal
iterations and x within 1e-9 relative.
"""

import warnings

import numpy as np
import pytest
from reference_recon import reference_solve_bp

from avds.density import Density
from avds.masks import DISTINCT, draw_mask
from avds.recon import MeasurementOp, SolverParams, measure, solve_bp
from avds.transforms import Measurement, OperatorSpec, Sparsity


def _problem(spec, fraction, sparsity, seed, complex_signal=False):
    rng = np.random.default_rng(seed)
    k = spec.dim
    dens = Density(np.full(k, 1.0 / k), float(k))
    mask = draw_mask(dens, max(1, round(fraction * k)), mode=DISTINCT, seed=seed + 1)
    x = np.zeros(k, dtype=complex if complex_signal else float)
    support = rng.choice(k, sparsity, replace=False)
    x[support] = rng.choice([-1.0, 1.0], sparsity)
    if complex_signal:
        x[support] *= np.exp(2j * np.pi * rng.random(sparsity))
    op = MeasurementOp(spec, mask)
    return measure(x, op), op


def _both(y, op, params=None):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the iteration cap
        return solve_bp(y, op, params), reference_solve_bp(y, op, params)


IDENTITY_LAYOUT = [
    # spec, measured fraction, nonzeros, complex signal, solver parameters
    (OperatorSpec(Measurement.DFT1D, Sparsity.IDENTITY, 64), 0.5, 3, False, None),
    (OperatorSpec(Measurement.DFT1D, Sparsity.DB4_1D, 64, levels=3), 0.5, 4, False, None),
    (OperatorSpec(Measurement.DFT2D, Sparsity.DB4_2D, 8, levels=2), 0.75, 4, True, None),
    (OperatorSpec(Measurement.DFT2D, Sparsity.TENSOR_DB4, 16, levels=2), 0.4, 8, False, None),
    (OperatorSpec(Measurement.HADAMARD2D, Sparsity.TENSOR_HAAR, 16, levels=2), 0.4, 8, False, None),
    (OperatorSpec(Measurement.HADAMARD2D, Sparsity.DB4_2D, 16, levels=2), 0.4, 8, False, None),
    (OperatorSpec(Measurement.IDENTITY, Sparsity.HAAR1D, 64, levels=3), 0.6, 3, False, None),
    # the iteration cap
    (
        OperatorSpec(Measurement.DFT1D, Sparsity.IDENTITY, 64),
        0.3,
        6,
        False,
        SolverParams(continuation_steps=2, max_inner=5),
    ),
]


@pytest.mark.parametrize("spec,fraction,sparsity,complex_signal,params", IDENTITY_LAYOUT)
def test_identity_layout_is_bit_identical(spec, fraction, sparsity, complex_signal, params):
    for seed in (0, 1):
        y, op = _problem(spec, fraction, sparsity, seed, complex_signal)
        got, want = _both(y, op, params)
        assert got.x.dtype == want.x.dtype
        assert got.inner_iterations == want.inner_iterations
        assert got.converged == want.converged
        if np.iscomplexobj(got.x):
            assert np.array_equal(got.x, want.x)
            assert got.stage_objectives == want.stage_objectives
            assert got.residual == want.residual
        else:
            assert np.linalg.norm(got.x - want.x) <= 1e-12 * np.linalg.norm(want.x)
            assert np.allclose(got.stage_objectives, want.stage_objectives, rtol=1e-12, atol=0)
            assert got.residual <= 1e-9 * np.linalg.norm(y)
    if params is not None:
        assert not got.converged


@pytest.mark.parametrize("complex_signal", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("side", [8, 16, 32])
def test_walsh_haar_layout_matches_to_roundoff(side, complex_signal):
    for levels in sorted({1, max(1, side.bit_length() - 4), side.bit_length() - 2}):
        spec = OperatorSpec(Measurement.HADAMARD2D, Sparsity.HAAR2D, side, levels=levels)
        for seed in range(3):
            y, op = _problem(spec, 0.3, max(2, spec.dim // 40), seed, complex_signal)
            assert np.iscomplexobj(y) == complex_signal
            got, want = _both(y, op)
            assert got.inner_iterations == want.inner_iterations, (spec, seed)
            err = np.linalg.norm(got.x - want.x) / np.linalg.norm(want.x)
            assert err <= 1e-9, (spec, seed, err)
            assert got.residual <= 1e-9 * np.linalg.norm(y)
