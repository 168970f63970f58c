"""The factor-matrix transforms against the reference kernels they replaced.

Every valid (measurement, sparsity) pair, at every size with K <= 1024 and
every wavelet depth, on real, complex and batched input, both directions.
"""

import itertools

import numpy as np
import pytest
from reference_transforms import reference_apply, reference_separable_factor

from avds.errors import InvalidSpec
from avds.transforms import (
    Direction,
    Measurement,
    OperatorSpec,
    Sparsity,
    apply,
    rows_batch,
    separable_factor,
)


def _valid(measurement, sparsity, size):
    try:
        return OperatorSpec(measurement, sparsity, size)
    except InvalidSpec:
        return None


def _specs(measurement, sparsity):
    """Every spec of the pair with K <= 1024, one per (size, levels)."""
    for size in (2**p for p in range(1, 11)):
        spec = _valid(measurement, sparsity, size)
        if spec is None or spec.dim > 1024:
            continue
        if sparsity == Sparsity.IDENTITY:
            yield spec
        else:
            for levels in range(1, size.bit_length()):
                yield OperatorSpec(measurement, sparsity, size, levels=levels)


PAIRS = [
    (m, s)
    for m, s in itertools.product(Measurement, Sparsity)
    if _valid(m, s, 4) is not None
]


def test_every_pair_is_covered():
    assert len(PAIRS) == 20


@pytest.mark.parametrize("measurement,sparsity", PAIRS, ids=lambda v: v.value)
def test_apply_matches_reference_kernels(measurement, sparsity):
    rng = np.random.default_rng(2024)
    for spec in _specs(measurement, sparsity):
        batch = rng.normal(size=(3, spec.dim)) + 1j * rng.normal(size=(3, spec.dim))
        for direction in Direction:
            for x in (batch[0].real, batch[0], batch):
                got = apply(spec, direction, x)
                want = reference_apply(spec, direction, x)
                assert got.shape == want.shape
                err = np.max(np.abs(got - want))
                assert err <= 1e-12 * np.linalg.norm(x), (spec, direction, err)


@pytest.mark.parametrize(
    "measurement,sparsity",
    [(m, s) for m, s in PAIRS if m in (Measurement.DFT1D, Measurement.DFT2D)],
    ids=lambda v: v.value,
)
def test_complex_rows_batch_is_the_conjugated_adjoint(measurement, sparsity):
    # rows a_k = conj(A0* e_k), conjugated in place of the adjoint's output
    for spec in _specs(measurement, sparsity):
        want = apply(spec, Direction.ADJOINT, np.eye(spec.dim)).conj()
        assert np.array_equal(rows_batch(spec, np.arange(spec.dim)), want), spec


def test_separable_factor_matches_reference():
    for measurement, sparsity in PAIRS:
        for spec in _specs(measurement, sparsity):
            want = reference_separable_factor(spec)
            got = separable_factor(spec)
            if want is None:
                assert got is None, spec
            else:
                assert np.max(np.abs(got - want)) <= 1e-12, spec


def test_cached_factors_are_read_only():
    from avds import transforms

    grid = OperatorSpec(Measurement.HADAMARD2D, Sparsity.DB4_2D, 8, levels=2)
    for factor in (
        transforms._hadamard(8),
        transforms._wavelet_factor("db4", 8, 2),
        *transforms._filter_bank("db4", 8),
        *transforms._step_pair("db4", 4),
        *transforms._grid_factors(grid)[0],
    ):
        with pytest.raises(ValueError):
            factor[0] = 1.0
    spec = OperatorSpec(Measurement.HADAMARD2D, Sparsity.IDENTITY, 8)
    separable_factor(spec)[0, 0] = 0.0  # callers get their own copy
    assert transforms._hadamard(8)[0, 0] > 0
