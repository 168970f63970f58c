import numpy as np
import pytest
from reference_transforms import dense_matrix, reference_apply

from avds.errors import DimensionMismatch, InvalidSpec
from avds.transforms import (
    _DB4_H,
    Direction,
    Measurement,
    OperatorSpec,
    Sparsity,
    apply,
    rows_batch,
)

FORWARD = Direction.FORWARD
ADJOINT = Direction.ADJOINT


def all_specs_small():
    """A spread of valid specs at K = 16 (side 4) / K = 16 (1D)."""
    return [
        OperatorSpec(Measurement.DFT1D, Sparsity.IDENTITY, 16),
        OperatorSpec(Measurement.DFT1D, Sparsity.HAAR1D, 16, levels=2),
        OperatorSpec(Measurement.DFT1D, Sparsity.DB4_1D, 16, levels=4),
        OperatorSpec(Measurement.DFT2D, Sparsity.IDENTITY, 4),
        OperatorSpec(Measurement.DFT2D, Sparsity.HAAR2D, 4, levels=2),
        OperatorSpec(Measurement.DFT2D, Sparsity.DB4_2D, 4, levels=1),
        OperatorSpec(Measurement.DFT2D, Sparsity.TENSOR_HAAR, 4, levels=2),
        OperatorSpec(Measurement.DFT2D, Sparsity.TENSOR_DB4, 4, levels=1),
        OperatorSpec(Measurement.HADAMARD2D, Sparsity.HAAR2D, 4, levels=2),
        OperatorSpec(Measurement.HADAMARD2D, Sparsity.TENSOR_DB4, 4, levels=2),
        OperatorSpec(Measurement.IDENTITY, Sparsity.IDENTITY, 16),
        OperatorSpec(Measurement.IDENTITY, Sparsity.DB4_1D, 16, levels=3),
    ]


@pytest.mark.parametrize("spec", all_specs_small(), ids=str)
def test_unitarity_and_parseval(spec):
    rng = np.random.default_rng(7)
    x = rng.normal(size=spec.dim) + 1j * rng.normal(size=spec.dim)
    y = apply(spec, FORWARD, x)
    assert abs(np.linalg.norm(y) - np.linalg.norm(x)) <= 1e-10 * np.linalg.norm(x)
    back = apply(spec, ADJOINT, y)
    assert np.linalg.norm(back - x) <= 1e-10 * np.linalg.norm(x)


@pytest.mark.parametrize("spec", all_specs_small(), ids=str)
def test_row_consistency(spec):
    rng = np.random.default_rng(3)
    x = rng.normal(size=spec.dim) + 1j * rng.normal(size=spec.dim)
    y = apply(spec, FORWARD, x)
    for k in rng.integers(0, spec.dim, size=min(16, spec.dim)):
        rk = rows_batch(spec, [int(k)])[0]
        assert abs(rk @ x - y[k]) <= 1e-10


@pytest.mark.parametrize("spec", all_specs_small(), ids=str)
def test_dense_equivalence(spec):
    a0 = dense_matrix(spec)
    gram = a0 @ a0.conj().T
    assert np.max(np.abs(gram - np.eye(spec.dim))) <= 1e-10


def test_row_norms_unit():
    spec = OperatorSpec(Measurement.HADAMARD2D, Sparsity.HAAR2D, 4, levels=2)
    mat = rows_batch(spec, np.arange(16))
    norms = np.sum(np.abs(mat) ** 2, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)


def test_dft_delta_constant_magnitude():
    spec = OperatorSpec(Measurement.DFT1D, Sparsity.IDENTITY, 4)
    x = np.zeros(4)
    x[1] = 1.0
    y = apply(spec, FORWARD, x)
    assert np.allclose(np.abs(y), 0.5, atol=1e-12)


def test_haar_constant_signal_single_coefficient():
    # full-depth analysis of the constant vector concentrates on the
    # approximation coefficient
    spec = OperatorSpec(Measurement.IDENTITY, Sparsity.HAAR1D, 4, levels=2)
    coeffs = apply(spec, ADJOINT, np.full(4, 0.5))
    assert abs(coeffs[0] - 1.0) <= 1e-12
    assert np.max(np.abs(coeffs[1:])) <= 1e-12


def test_db4_taps_are_orthonormal_to_rounding():
    # correctly rounded taps: sum sqrt(2), unit energy, orthogonal to
    # their even shifts, each to a few ulps (the 13-digit tables miss by 1e-12)
    h = _DB4_H
    ulp = np.finfo(float).eps
    assert abs(h.sum() - np.sqrt(2.0)) <= 4 * ulp
    assert abs(h @ h - 1.0) <= 4 * ulp
    for k in (1, 2, 3):
        assert abs(h[2 * k :] @ h[: -2 * k]) <= 4 * ulp


def test_dft_identity_row_energy_flat():
    spec = OperatorSpec(Measurement.DFT1D, Sparsity.IDENTITY, 16)
    for k in (0, 3, 15):
        rk = rows_batch(spec, [k])[0]
        assert np.allclose(np.abs(rk) ** 2, 1.0 / 16, atol=1e-12)


def test_identity_operator_rows_are_deltas():
    spec = OperatorSpec(Measurement.IDENTITY, Sparsity.IDENTITY, 8)
    for k in range(8):
        rk = rows_batch(spec, [k])[0]
        e = np.zeros(8)
        e[k] = 1.0
        assert np.allclose(rk, e, atol=1e-14)


def test_hadamard_natural_order():
    # Sylvester H_4 has rows [++++, +-+-, ++--, +--+] / 2 on axis transforms;
    # check via the 2D operator on a delta image row
    spec = OperatorSpec(Measurement.HADAMARD2D, Sparsity.IDENTITY, 2)
    a0 = dense_matrix(spec)
    h2 = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    expected = np.kron(h2, h2)
    assert np.allclose(a0, expected, atol=1e-12)


def test_tensor_wavelet_is_kron_of_1d():
    side = 4
    spec2 = OperatorSpec(Measurement.DFT2D, Sparsity.TENSOR_HAAR, side, levels=2)
    spec1 = OperatorSpec(Measurement.DFT1D, Sparsity.HAAR1D, side, levels=2)
    a2 = dense_matrix(spec2)
    a1 = dense_matrix(spec1)
    assert np.allclose(a2, np.kron(a1, a1), atol=1e-10)


def test_adjoint_is_conjugate_transpose():
    spec = OperatorSpec(Measurement.DFT2D, Sparsity.DB4_2D, 4, levels=2)
    a0 = dense_matrix(spec)
    rng = np.random.default_rng(0)
    x = rng.normal(size=16)
    assert np.allclose(apply(spec, ADJOINT, x), a0.conj().T @ x, atol=1e-10)


def test_batched_apply_matches_loop():
    spec = OperatorSpec(Measurement.HADAMARD2D, Sparsity.TENSOR_DB4, 8, levels=3)
    rng = np.random.default_rng(11)
    xs = rng.normal(size=(5, spec.dim))
    batch = apply(spec, FORWARD, xs)
    for i in range(5):
        assert np.allclose(batch[i], apply(spec, FORWARD, xs[i]), atol=1e-12)


def _dft2d_wavelet_specs():
    """DFT2D x every 2D wavelet, sides 4..32, every level: 56 specs."""
    return [
        OperatorSpec(Measurement.DFT2D, sparsity, side, levels=levels)
        for sparsity in (Sparsity.HAAR2D, Sparsity.DB4_2D, Sparsity.TENSOR_HAAR, Sparsity.TENSOR_DB4)
        for side in (4, 8, 16, 32)
        for levels in range(1, side.bit_length())
    ]


@pytest.mark.parametrize("direction", [FORWARD, ADJOINT], ids=str)
@pytest.mark.parametrize("spec", _dft2d_wavelet_specs(), ids=str)
def test_a_real_input_through_complex_factors_matches_its_complex_copy(spec, direction):
    # a real input takes one real GEMM against the complex factor viewed as
    # float pairs; the same input as complex takes the complex GEMM
    x = np.random.default_rng(spec.size).normal(size=(3, spec.dim))
    assert np.array_equal(apply(spec, direction, x), apply(spec, direction, x.astype(complex)))


def test_errors():
    spec = OperatorSpec(Measurement.DFT1D, Sparsity.IDENTITY, 8)
    with pytest.raises(DimensionMismatch):
        apply(spec, FORWARD, np.zeros(7))
    with pytest.raises(DimensionMismatch):
        rows_batch(spec, [8])
    with pytest.raises(InvalidSpec):
        OperatorSpec(Measurement.DFT1D, Sparsity.IDENTITY, 12)
    with pytest.raises(InvalidSpec):
        OperatorSpec(Measurement.DFT1D, Sparsity.HAAR2D, 8)
    with pytest.raises(InvalidSpec):
        OperatorSpec(Measurement.DFT2D, Sparsity.HAAR1D, 8)
    with pytest.raises(InvalidSpec):
        OperatorSpec(Measurement.DFT1D, Sparsity.HAAR1D, 8, levels=9)


@pytest.mark.parametrize(
    "indices",
    [[1.5], [[1, 2]], np.array(3), [True, False], np.array([0.0, 1.0])],
    ids=["float", "2-d", "0-d", "bool", "float-array"],
)
def test_rows_batch_takes_only_a_1d_integer_index_array(indices):
    # a float index was truncated to its row, and a 2-D one summed its rows
    spec = OperatorSpec(Measurement.HADAMARD2D, Sparsity.HAAR2D, 8, levels=2)
    with pytest.raises(DimensionMismatch, match="1-D integer"):
        rows_batch(spec, indices)


def test_rows_batch_accepts_empty_and_unsigned_indices():
    spec = OperatorSpec(Measurement.HADAMARD2D, Sparsity.HAAR2D, 8, levels=2)
    assert rows_batch(spec, []).shape == (0, 64)
    assert np.array_equal(rows_batch(spec, np.uint8([3, 5])), rows_batch(spec, [3, 5]))


@pytest.mark.parametrize(
    "x", [3.0, np.float64(2.0), np.array(1 + 1j)], ids=["float", "numpy", "0-d"]
)
@pytest.mark.parametrize("spec", all_specs_small(), ids=str)
def test_a_scalar_input_is_a_dimension_mismatch(spec, x):
    for direction in Direction:
        with pytest.raises(DimensionMismatch):
            apply(spec, direction, x)


@pytest.mark.parametrize("spec", all_specs_small(), ids=str)
def test_apply_never_returns_the_callers_array(spec):
    # identity x identity has no stage; a caller writing into the result
    # must not write into its input
    x = np.arange(2 * spec.dim, dtype=float).reshape(2, spec.dim)
    for direction in Direction:
        y = apply(spec, direction, x)
        assert not np.shares_memory(x, y)
        if (spec.measurement, spec.sparsity) == (Measurement.IDENTITY, Sparsity.IDENTITY):
            assert np.array_equal(y, x)


def test_default_levels():
    assert OperatorSpec(Measurement.DFT1D, Sparsity.DB4_1D, 64).levels == 6
    assert OperatorSpec(Measurement.DFT2D, Sparsity.DB4_2D, 64).levels == 3
    assert OperatorSpec(Measurement.DFT2D, Sparsity.HAAR2D, 8).levels == 1


@pytest.mark.parametrize("measurement", [Measurement.IDENTITY, Measurement.DFT1D], ids=str)
def test_full_depth_db4_at_k_65536(measurement):
    # the 1D filter bank costs O(K) per level, so full depth at K = 2^16 is cheap
    spec = OperatorSpec(measurement, Sparsity.DB4_1D, 1 << 16)
    assert spec.levels == 16
    rng = np.random.default_rng(16)
    x = rng.normal(size=spec.dim) + 1j * rng.normal(size=spec.dim)
    norm = np.linalg.norm(x)
    y = apply(spec, FORWARD, x)
    assert abs(np.linalg.norm(y) - norm) <= 1e-12 * norm
    want = reference_apply(spec, FORWARD, x)
    assert np.max(np.abs(y - want)) <= 1e-12 * norm
    # the correctly rounded taps invert to about 5e-16 relative at this depth
    assert np.linalg.norm(apply(spec, ADJOINT, y) - x) <= 1e-12 * norm
