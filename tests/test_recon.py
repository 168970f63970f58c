import warnings

import numpy as np
import pytest
from reference_recon import SingularGram, check_fuchs
from reference_transforms import dense_matrix

from avds.density import Density
from avds.errors import DimensionMismatch, UnsupportedSolver
from avds.masks import DISTINCT, IID, Mask, draw_mask
from avds.recon import (
    MeasurementOp,
    SolverParams,
    _huber_objective,
    _window_objective,
    adjoint_measure,
    measure,
    solve_bp,
)
from avds.transforms import Measurement, OperatorSpec, Sparsity

DFT64 = OperatorSpec(Measurement.DFT1D, Sparsity.IDENTITY, 64)


def distinct_mask(k, m, seed=0):
    dens = Density(np.full(k, 1.0 / k), float(k))
    return draw_mask(dens, m, mode=DISTINCT, seed=seed)


def full_mask(k):
    return Mask(np.arange(k), np.ones(k, dtype=int))


@pytest.mark.parametrize("indices", [[-1, 3], [3, 64]], ids=["negative", "past-k"])
def test_mask_indices_outside_the_operator_rejected(indices):
    # -1 would silently measure row K - 1, and 64 end in a bare IndexError
    with pytest.raises(DimensionMismatch):
        MeasurementOp(DFT64, Mask(indices, [1, 1]))


def test_full_mask_preserves_norm():
    op = MeasurementOp(DFT64, full_mask(64))
    rng = np.random.default_rng(0)
    x = rng.normal(size=64)
    y = measure(x, op)
    assert np.isclose(np.linalg.norm(y), np.linalg.norm(x), rtol=1e-12)
    assert np.allclose(measure(np.zeros(64), op), 0)


def test_adjoint_consistency():
    op = MeasurementOp(DFT64, distinct_mask(64, 20, seed=3))
    rng = np.random.default_rng(1)
    x = rng.normal(size=64) + 1j * rng.normal(size=64)
    u = rng.normal(size=20) + 1j * rng.normal(size=20)
    lhs = np.vdot(u, measure(x, op))
    rhs = np.vdot(adjoint_measure(u, op), x)
    assert abs(lhs - rhs) <= 1e-10 * max(1, abs(lhs))


def test_projector_exactness():
    spec = OperatorSpec(Measurement.HADAMARD2D, Sparsity.HAAR2D, 8, levels=2)
    op = MeasurementOp(spec, distinct_mask(64, 30, seed=5))
    rng = np.random.default_rng(2)
    u = rng.normal(size=30)
    again = measure(adjoint_measure(u, op), op)
    assert np.linalg.norm(again - u) <= 1e-10 * np.linalg.norm(u)


@pytest.mark.parametrize(
    "field, value",
    [
        ("final_mu_factor", np.nan),
        ("final_mu_factor", np.inf),
        ("inner_tol", np.nan),
        ("inner_tol", np.inf),
        ("continuation_steps", np.nan),
        ("max_inner", np.nan),
    ],
)
def test_solver_params_must_be_finite(field, value):
    # NaN passed min(...) <= 0: a NaN final mu ran every solve to the
    # iteration cap, and a NaN tolerance never stopped a stage
    with pytest.raises(UnsupportedSolver, match="finite"):
        SolverParams(**{field: value})


def test_solver_rejects_repeated_draws():
    dens = Density(np.full(64, 1.0 / 64), 64.0)
    mask = draw_mask(dens, 80, mode=IID, seed=9)
    assert np.any(mask.multiplicities > 1)
    op = MeasurementOp(DFT64, mask)
    assert not op.is_orthonormal
    with pytest.raises(UnsupportedSolver):
        solve_bp(np.zeros(mask.size), op)


def test_solver_rejects_a_repeated_index():
    # a row listed twice: A A* has a 2 on the diagonal, so no exact projection
    op = MeasurementOp(DFT64, Mask([3, 3, 7, 9], np.ones(4, dtype=int)))
    assert not op.is_orthonormal
    with pytest.raises(UnsupportedSolver):
        solve_bp(np.ones(4), op)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_solver_rejects_non_finite_measurements(bad):
    op = MeasurementOp(DFT64, distinct_mask(64, 16, seed=1))
    y = np.ones(16, dtype=complex)
    y[5] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # raised before any iteration warns
        with pytest.raises(UnsupportedSolver, match="finite"):
            solve_bp(y, op)


@pytest.mark.parametrize(
    "spec",
    [DFT64, OperatorSpec(Measurement.HADAMARD2D, Sparsity.HAAR2D, 8, levels=2)],
    ids=str,
)
@pytest.mark.parametrize("shape", [(2, 16), ()], ids=["two-rows", "scalar"])
def test_solver_takes_one_measurement_vector(spec, shape, monkeypatch):
    op = MeasurementOp(spec, distinct_mask(64, 16, seed=1))

    def no_transform(*args):
        raise AssertionError("transformed before the shape check")

    # x0 = A* y is the solve's first transform
    monkeypatch.setattr("avds.recon.adjoint_measure", no_transform)
    with pytest.raises(DimensionMismatch, match="one measurement vector"):
        solve_bp(np.ones(shape), op)


def test_solve_full_sampling_is_exact_inverse():
    op = MeasurementOp(DFT64, full_mask(64))
    rng = np.random.default_rng(7)
    x = np.zeros(64)
    x[rng.choice(64, 5, replace=False)] = rng.choice([-1.0, 1.0], 5)
    res = solve_bp(measure(x, op), op)
    assert np.linalg.norm(res.x - x) <= 1e-8


def test_solve_zero_rhs():
    op = MeasurementOp(DFT64, distinct_mask(64, 16, seed=1))
    res = solve_bp(np.zeros(16, dtype=complex), op)
    assert np.all(res.x == 0)
    assert res.converged


def planted_instance(seed, s=3, m=32):
    rng = np.random.default_rng(seed)
    mask = distinct_mask(64, m, seed=seed + 1000)
    support = np.sort(rng.choice(64, s, replace=False))
    signs = rng.choice([-1.0, 1.0], s)
    x = np.zeros(64)
    x[support] = signs
    return mask, support, signs, x


def test_fuchs_zero_for_full_mask():
    mask = full_mask(64)
    _, support, signs, _ = planted_instance(0)
    assert check_fuchs(DFT64, mask, support, signs) <= 1e-10


def test_fuchs_certified_instances_recover():
    hits = 0
    seed = 0
    while hits < 5:
        mask, support, signs, x = planted_instance(seed)
        seed += 1
        cert = check_fuchs(DFT64, mask, support, signs)
        if cert >= 0.99:
            continue
        hits += 1
        op = MeasurementOp(DFT64, mask)
        res = solve_bp(measure(x, op), op)
        err = np.linalg.norm(res.x - x) / np.linalg.norm(x)
        assert err <= 1e-4, f"certificate {cert:.3f} but error {err:.2e}"
        assert res.residual <= 1e-6 * np.linalg.norm(measure(x, op))


def test_fuchs_matches_dense_formula():
    # ||A_{I^c}* A_I (A_I* A_I)^{-1} s||_inf from the dense measurement matrix
    spec = OperatorSpec(Measurement.DFT1D, Sparsity.DB4_1D, 64, levels=3)
    a0 = dense_matrix(spec)
    for seed in range(6):
        mask, support, signs, _ = planted_instance(seed)
        cols = a0[mask.indices][:, support]
        w = np.linalg.solve(cols.conj().T @ cols, signs)
        v = a0[mask.indices].conj().T @ (cols @ w)
        want = np.max(np.abs(np.delete(v, support)))
        assert np.isclose(check_fuchs(spec, mask, support, signs), want, rtol=1e-10)


def test_fuchs_undersampled_flags():
    # m = S: the Gram is singular or the certificate is nowhere near valid
    rng = np.random.default_rng(3)
    support = np.sort(rng.choice(64, 8, replace=False))
    signs = rng.choice([-1.0, 1.0], 8)
    mask = distinct_mask(64, 8, seed=17)
    try:
        value = check_fuchs(DFT64, mask, support, signs)
    except SingularGram:
        return
    assert value >= 1.0 - 1e-9


def test_scale_equivariance():
    mask, support, signs, x = planted_instance(11)
    op = MeasurementOp(DFT64, mask)
    y = measure(x, op)
    res1 = solve_bp(y, op)
    res2 = solve_bp(2.5 * y, op)
    assert np.linalg.norm(res2.x - 2.5 * res1.x) <= 1e-5 * np.linalg.norm(res1.x)


def test_stage_objectives_nonincreasing():
    mask, support, signs, x = planted_instance(21)
    op = MeasurementOp(DFT64, mask)
    res = solve_bp(measure(x, op), op)
    objs = np.array(res.stage_objectives)
    assert np.all(np.diff(objs) <= 1e-6 * np.maximum(objs[:-1], 1e-12))


def test_complex_signal_roundtrip():
    spec = OperatorSpec(Measurement.DFT2D, Sparsity.DB4_2D, 8, levels=2)
    rng = np.random.default_rng(5)
    x = np.zeros(64, dtype=complex)
    idx = rng.choice(64, 4, replace=False)
    x[idx] = np.exp(2j * np.pi * rng.random(4))
    op = MeasurementOp(spec, distinct_mask(64, 48, seed=2))
    res = solve_bp(measure(x, op), op)
    assert np.linalg.norm(res.x - x) / np.linalg.norm(x) <= 1e-3


def test_iteration_cap_warns_with_residual():
    mask, support, signs, x = planted_instance(31, s=6, m=20)
    op = MeasurementOp(DFT64, mask)
    params = SolverParams(continuation_steps=2, max_inner=5)
    with pytest.warns(RuntimeWarning, match="residual"):
        res = solve_bp(measure(x, op), op, params)
    assert not res.converged


@pytest.mark.parametrize("case", ["mixed", "at_mu", "below", "above"])
@pytest.mark.parametrize("complex_vector", [False, True])
def test_window_objective_is_the_huber_objective(case, complex_vector):
    rng = np.random.default_rng(41)
    mu = 0.37
    scale = {"mixed": 2.0 * mu, "at_mu": mu, "below": 0.5 * mu, "above": 4.0 * mu}[case]
    x = scale * rng.random(4096)
    if case == "above":
        x += mu
    if case == "at_mu":
        x[::3] = mu  # |x| exactly mu, on the boundary of the two branches
    x *= rng.choice([-1.0, 1.0], x.size)
    if complex_vector:
        # unit phases keep |x| (and |x| = mu exactly on the quarter turns)
        x = x * np.where(rng.random(x.size) < 0.5, 1j, np.exp(2j * np.pi * rng.random(x.size)))
        if case == "at_mu":
            x[::3] = mu * rng.choice([1.0, -1.0, 1j, -1j], x[::3].size)
    a = np.abs(x)
    assert {"below": a.max() < mu, "above": a.min() > mu}.get(case, a.min() < mu <= a.max())
    assert case != "at_mu" or np.count_nonzero(a == mu) >= x.size // 3
    want = _huber_objective(x, mu)
    got = _window_objective(x, mu, np.empty(x.shape), np.empty(x.shape))
    assert abs(got - want) <= 1e-13 * want


def test_a_scalar_measures_nothing():
    spec = OperatorSpec(Measurement.HADAMARD2D, Sparsity.HAAR2D, 4, levels=1)
    op = MeasurementOp(spec, Mask(np.array([0, 3]), np.ones(2, dtype=np.int64)))
    with pytest.raises(DimensionMismatch):
        measure(3.0, op)
    with pytest.raises(DimensionMismatch):
        adjoint_measure(np.float64(1.0), op)
