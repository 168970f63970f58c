"""The solver's per-spec layout (`transforms.solver_plan`) against `apply`.

Hadamard2D x Haar MRA iterates as one Walsh-Hadamard block per wavelet
subband.  At every side 2..256 and every depth the coefficient order and
its blocks are those of the reference corner walk.  At every side 2..64
and every depth: a full mask in shuffled measurement order projects onto
A0* y in that order to 1e-12 ||x||, and each block holds exactly one
`energy_classes` class.  Every other pair keeps the identity layout, and
its projection is `measure` and `adjoint_measure` bit for bit.  Every
plan's `project` is v - A*(Av - y) through `measure` and
`adjoint_measure` to 1e-12 relative, for real and complex y on random
and full masks.  A projection takes one measurement vector.
"""

import numpy as np
import pytest
from reference_transforms import reference_walsh_haar_layout
from test_transform_oracle import PAIRS, _specs

from avds.masks import Mask
from avds.recon import MeasurementOp, adjoint_measure, measure
from avds.transforms import (
    Direction,
    Measurement,
    OperatorSpec,
    Sparsity,
    apply,
    energy_classes,
    solver_plan,
)

WALSH_HAAR = (Measurement.HADAMARD2D, Sparsity.HAAR2D)


def _walsh_haar_specs(sides=(2, 4, 8, 16, 32, 64)):
    for side in sides:
        for levels in range(1, side.bit_length()):
            yield OperatorSpec(*WALSH_HAAR, side, levels=levels)


def _blocks(spec):
    """(start, stop) of each subband block of the reference layout."""
    sizes = np.array(reference_walsh_haar_layout(spec.side, spec.levels)[1])
    stops = np.cumsum(sizes)
    return zip(stops - sizes, stops)


def _is_permutation(index, k):
    return np.array_equal(np.sort(index), np.arange(k))


@pytest.mark.parametrize("spec", list(_walsh_haar_specs([1 << n for n in range(1, 9)])), ids=str)
def test_walsh_haar_layout_is_the_corner_walk(spec):
    order, sizes = reference_walsh_haar_layout(spec.side, spec.levels)
    got = solver_plan(spec).order
    assert np.array_equal(got, order)
    # the blocks are the runs of one class in the layout
    labels = energy_classes(spec)[got]
    stops = np.flatnonzero(np.append(labels[1:] != labels[:-1], True)) + 1
    assert np.array_equal(np.diff(stops, prepend=0), sizes)


@pytest.mark.parametrize("spec", list(_walsh_haar_specs()), ids=str)
def test_walsh_haar_layout_is_a0(spec):
    plan = solver_plan(spec)
    k = spec.dim
    assert _is_permutation(plan.order, k)
    # every row measured, in shuffled order: the projection of anything is
    # A0* y = x, at layout position i the coefficient order[i]
    rng = np.random.default_rng(spec.side + spec.levels)
    rows = rng.permutation(k)
    z = rng.normal(size=k) + 1j * rng.normal(size=k)
    for x in (z.real, z):
        y = apply(spec, Direction.FORWARD, x)[rows]
        out = np.empty(plan.shape, y.dtype)
        plan.projector(rows, y)(np.zeros_like(out), out)
        want = x[plan.order].reshape(out.shape)
        assert np.max(np.abs(out - want)) <= 1e-12 * np.linalg.norm(x)


@pytest.mark.parametrize("spec", list(_walsh_haar_specs()), ids=str)
def test_walsh_haar_blocks_are_energy_classes(spec):
    labels = energy_classes(spec)[solver_plan(spec).order]
    seen = [np.unique(labels[start:stop]) for start, stop in _blocks(spec)]
    assert all(len(block) == 1 for block in seen)
    # 3J + 1 blocks, one per class
    assert sorted(int(block[0]) for block in seen) == list(range(3 * spec.levels + 1))


@pytest.mark.parametrize(
    "measurement,sparsity",
    [pair for pair in PAIRS if pair != WALSH_HAAR],
    ids=lambda v: v.value,
)
def test_other_plans_are_apply_bit_for_bit(measurement, sparsity):
    rng = np.random.default_rng(11)
    for spec in _specs(measurement, sparsity):
        plan = solver_plan(spec)
        assert np.array_equal(plan.order, np.arange(spec.dim))
        rows = rng.permutation(spec.dim)[: max(1, spec.dim // 3)]
        op = MeasurementOp(spec, Mask(rows, np.ones(rows.size)))
        real, imag = rng.normal(size=(2, rows.size))
        for y in (real, real + 1j * imag):
            x0 = adjoint_measure(y, op)  # the iterate's dtype
            v = x0 + rng.normal(size=x0.shape)
            out = np.empty_like(v)
            plan.projector(rows, y)(v, out)
            want = v - adjoint_measure(measure(v, op) - y, op)
            assert np.array_equal(out, want), (spec, y.dtype)


def _projector_specs():
    """Every spec of every pair up to K = 1024, and Walsh-Haar at side 64.

    The deepest Walsh-Haar levels at sides 4 to 64 have subbands
    with s^2 < side/2, which share the last one or two rows of the layout.
    """
    for pair in PAIRS:
        yield from _specs(*pair)
    yield from (spec for spec in _walsh_haar_specs() if spec.side == 64)


@pytest.mark.parametrize("spec", list(_projector_specs()), ids=str)
def test_projector_is_the_affine_projection(spec):
    plan = solver_plan(spec)
    k = spec.dim
    rng = np.random.default_rng(k + (spec.levels or 0))
    random_mask = np.sort(rng.choice(k, max(1, k // 3), replace=False))
    for rows in (random_mask, np.arange(k)):
        op = MeasurementOp(spec, Mask(rows, np.ones(rows.size)))
        real, imag = rng.normal(size=(2, rows.size))
        for y in (real, real + 1j * imag):
            x0 = adjoint_measure(y, op)  # the iterate's dtype
            v = rng.normal(size=x0.shape) + (
                1j * rng.normal(size=x0.shape) if np.iscomplexobj(x0) else 0
            )
            want = v - adjoint_measure(measure(v, op) - y, op)
            project = plan.projector(rows, y)
            layout = v[plan.order].reshape(plan.shape)
            out = np.empty_like(layout)
            project(layout, out)
            got = np.empty_like(v)
            got[plan.order] = out.ravel()
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), (spec, y.dtype)
