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
    _column_factors,
    apply,
    column_pairs,
    rows_batch,
    separable_factor,
    solver_plan,
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


PAIRS_2D = [(m, s) for m, s in PAIRS if OperatorSpec(m, s, 4).is_2d]


@pytest.mark.parametrize("measurement,sparsity", PAIRS_2D, ids=lambda v: v.value)
def test_column_factors_match_apply(measurement, sparsity):
    # column l of A0 is kron(P[iu[l]], P[iv[l]]), entrywise as `apply` gives it
    assert len(PAIRS_2D) == 14
    for spec in _specs(measurement, sparsity):
        table, iu, iv = _column_factors(spec)
        want = apply(spec, Direction.FORWARD, np.eye(spec.dim))  # row l: column l of A0
        got = (table[iu][:, :, None] * table[iv][:, None, :]).reshape(spec.dim, spec.dim)
        assert got.dtype == want.dtype, spec
        assert np.max(np.abs(got - want)) <= 1e-13, spec


@pytest.mark.parametrize("measurement,sparsity", PAIRS, ids=lambda v: v.value)
def test_column_pairs_match_apply(measurement, sparsity):
    # column cols[i] of A0 is kron(u[i], v[i]) for columns in any order; 1D has width 1
    rng = np.random.default_rng(22)
    for spec in _specs(measurement, sparsity):
        cols = rng.permutation(spec.dim)
        u, v = column_pairs(spec, cols)
        assert v.shape[1] == (spec.side if spec.is_2d else 1), spec
        want = apply(spec, Direction.FORWARD, np.eye(spec.dim))[cols]  # row i: column cols[i]
        got = (u[:, :, None] * v[:, None, :]).reshape(spec.dim, spec.dim)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), spec


def test_cached_factors_are_read_only():
    from avds import transforms

    grid = OperatorSpec(Measurement.HADAMARD2D, Sparsity.DB4_2D, 8, levels=2)
    dft = OperatorSpec(Measurement.DFT2D, Sparsity.DB4_2D, 8, levels=2)
    # apply's forward and adjoint stages: the outer pair, complex for the
    # DFT, and the inner MRA step pairs
    stages = [stage.args for spec in (grid, dft) for stage in transforms._stages(spec)]
    assert all(np.iscomplexobj(m) for outer, _ in stages[2:] for m in outer)
    pairs = [pair for outer, inner in stages for pair in (outer, *inner)]
    for pair in pairs:
        assert all(m.flags.c_contiguous for m in pair)
    walsh = OperatorSpec(Measurement.HADAMARD2D, Sparsity.HAAR2D, 8, levels=2)
    for factor in (
        *transforms._filter_bank("db4", 8),
        *(m for pair in pairs for m in pair),
        *transforms._column_factors(grid),
        *transforms._column_factors(dft),
        transforms.solver_plan(walsh).order,
    ):
        with pytest.raises(ValueError):
            factor[0] = 1.0
    spec = OperatorSpec(Measurement.HADAMARD2D, Sparsity.IDENTITY, 8)
    separable_factor(spec)[0, 0] = 0.0  # callers get their own copy
    assert transforms._column_factors(spec)[0][0, 0] > 0


def _per_spec_builds(spec):
    """Every per-spec build of `spec` as arrays: its table, column pairs,
    solver layout and projection, and both transforms."""
    rng = np.random.default_rng(spec.dim)
    x = rng.standard_normal((2, spec.dim))
    y = apply(spec, Direction.FORWARD, x)
    plan = solver_plan(spec)
    rows = rng.permutation(spec.dim)[: spec.dim // 3]
    v, out = rng.standard_normal(plan.shape), np.empty(plan.shape, complex)
    plan.projector(rows, y[0, rows])(v, out)
    return (
        *_column_factors(spec),
        *column_pairs(spec, rng.permutation(spec.dim)),
        plan.order,
        np.array(plan.shape),
        out,
        y,
        apply(spec, Direction.ADJOINT, y),
    )


def test_per_spec_builds_keep_the_last_specs_and_rebuild_equal():
    from avds import transforms

    caches = (_column_factors, transforms._stages, solver_plan)
    pairs = ((Measurement.HADAMARD2D, Sparsity.HAAR2D), (Measurement.DFT2D, Sparsity.DB4_2D))
    specs = [
        OperatorSpec(*pair, side, levels=j)
        for side in (8, 16, 32)
        for j in range(1, side.bit_length())
        for pair in pairs  # both solver layouts
    ][: transforms._SPECS_KEPT + 3]
    assert len(specs) > transforms._SPECS_KEPT
    first = _per_spec_builds(specs[0])
    for spec in specs[1:]:
        _per_spec_builds(spec)
        assert all(cache.cache_info().currsize <= transforms._SPECS_KEPT for cache in caches)
    misses = [cache.cache_info().misses for cache in caches]
    again = _per_spec_builds(specs[0])
    # evicted from every cache, so built again, to the same arrays
    assert [cache.cache_info().misses for cache in caches] == [n + 1 for n in misses]
    assert len(again) == len(first)
    for got, want in zip(again, first):
        assert np.array_equal(got, want)
