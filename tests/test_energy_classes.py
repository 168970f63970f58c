"""Isolated-row terms from subband energy classes against the dense rows.

`density.block_norm_terms` on the singleton partition takes both terms
from the class table wherever `transforms.energy_classes` returns labels;
`density._dense_terms` on the singleton blocks computes the same arrays
from all K rows and is its oracle, on every (measurement, sparsity) pair
at every size with K <= 1024 and every wavelet depth.
"""

import numpy as np
import pytest
from reference_transforms import row_energies
from test_transform_oracle import PAIRS, _specs

from avds import density, transforms
from avds.density import (
    BlockPartition,
    _dense_terms,
    adapted_isolated,
    baseline_density,
    block_norm_terms,
)
from avds.errors import InvalidWeights
from avds.support_model import WeightVector, normalize_weights
from avds.transforms import Measurement, OperatorSpec, Sparsity, energy_classes

LABELLED = [
    (m, s)
    for m, s in PAIRS
    if m != Measurement.IDENTITY
    and not (m == Measurement.HADAMARD2D and s in (Sparsity.DB4_2D, Sparsity.TENSOR_DB4))
]


def _weights(k, seed, zero=None):
    """Random weights summing to max(1, K/16); about a quarter of them, the
    last one and the indices in `zero` are zero."""
    rng = np.random.default_rng(seed)
    omega = rng.uniform(0.01, 1.0, k) * (rng.random(k) > 0.25)
    omega[0] = max(omega[0], 0.5)
    omega[-1] = 0.0
    if zero is not None:
        omega[zero] = 0.0
    return normalize_weights(omega, min(max(1, k // 16), np.count_nonzero(omega)))


def test_energy_classes_none_exactly_off_the_invariant_pairs():
    assert len(LABELLED) == 11
    for measurement, sparsity in PAIRS:
        for spec in _specs(measurement, sparsity):
            labels = energy_classes(spec)
            assert (labels is None) == ((measurement, sparsity) not in LABELLED), spec


@pytest.mark.parametrize("measurement,sparsity", LABELLED, ids=lambda v: v.value)
def test_class_columns_share_one_energy_profile(measurement, sparsity):
    for spec in _specs(measurement, sparsity):
        labels = energy_classes(spec)
        energy = row_energies(spec)  # [k, l] = |a_{k,l}|^2
        levels = spec.levels or 0
        expected = {
            Sparsity.IDENTITY: 1,
            Sparsity.HAAR1D: levels + 1,
            Sparsity.DB4_1D: levels + 1,
            Sparsity.HAAR2D: 3 * levels + 1,
            Sparsity.DB4_2D: 3 * levels + 1,
            Sparsity.TENSOR_HAAR: (levels + 1) ** 2,
            Sparsity.TENSOR_DB4: (levels + 1) ** 2,
        }[sparsity]
        assert labels.shape == (spec.dim,) and np.unique(labels).size == expected, spec
        reps = np.unique(labels, return_index=True)[1]
        err = np.max(np.abs(energy - energy[:, reps[labels]]))
        assert err <= 1e-12, (spec, err)


@pytest.mark.parametrize("measurement,sparsity", LABELLED, ids=lambda v: v.value)
def test_class_terms_match_dense_rows(measurement, sparsity):
    for spec in _specs(measurement, sparsity):
        labels = energy_classes(spec)
        seed = spec.dim + (spec.levels or 0)
        vectors = [_weights(spec.dim, seed)]
        if labels.max() > 0:  # leave a whole class without weight
            vectors.append(_weights(spec.dim, seed, zero=labels == labels.max()))
        for wv in vectors:
            singletons = BlockPartition.singletons(spec.dim)
            got = block_norm_terms(spec, singletons, wv)
            want = _dense_terms(spec, singletons, np.arange(spec.dim), wv)
            for g, w in zip(got, want):
                np.testing.assert_allclose(
                    g, w, rtol=1e-12, atol=1e-12 * w.max(), err_msg=str(spec)
                )


@pytest.mark.parametrize(
    "measurement,sparsity",
    [(m, s) for m, s in LABELLED if OperatorSpec(m, s, 4).is_2d],
    ids=lambda v: v.value,
)
def test_class_table_transforms_nothing(measurement, sparsity, monkeypatch):
    # a 2D class table gathers its columns from the per-axis table; only the
    # Gram term of a block of several rows needs the extracted rows
    def no_transform(*args):
        raise AssertionError("the class table ran a transform")

    monkeypatch.setattr(transforms, "_stages", no_transform)
    density._norm_terms.cache_clear()  # a kept result would skip the build under test
    for spec in _specs(measurement, sparsity):
        squares = BlockPartition.squares(spec.side, 2)
        assert len(adapted_isolated(spec, _weights(spec.dim, seed=spec.dim))) == spec.dim
        assert len(baseline_density("coherence", spec)) == spec.dim
        assert len(baseline_density("coherence", spec, squares)) == squares.m


def test_fallback_pairs_stream_rows():
    for spec in (
        OperatorSpec(Measurement.HADAMARD2D, Sparsity.DB4_2D, 16, levels=2),
        OperatorSpec(Measurement.IDENTITY, Sparsity.TENSOR_HAAR, 8),
    ):
        wv = _weights(spec.dim, seed=5)
        omega = wv.omega
        energy = row_energies(spec)
        gram, inf = block_norm_terms(spec, BlockPartition.singletons(spec.dim), wv)
        np.testing.assert_allclose(gram, energy @ omega, rtol=1e-12, atol=1e-15)
        assert np.array_equal(inf, energy[:, omega > 0].max(axis=1))


def test_singleton_terms_reject_bad_weights():
    spec = OperatorSpec(Measurement.DFT1D, Sparsity.HAAR1D, 16)
    singletons = BlockPartition.singletons(16)
    for omega in (np.full(8, 0.5), np.zeros(16)):
        with pytest.raises(InvalidWeights):
            block_norm_terms(spec, singletons, WeightVector(omega))


def test_coherence_baseline_is_the_row_sup_norm():
    for spec in (
        OperatorSpec(Measurement.HADAMARD2D, Sparsity.HAAR2D, 16, levels=3),
        OperatorSpec(Measurement.HADAMARD2D, Sparsity.TENSOR_DB4, 8),
    ):
        numer = row_energies(spec).max(axis=1)
        dens = baseline_density("coherence", spec)
        np.testing.assert_allclose(dens.pi, numer / numer.sum(), rtol=1e-12)


@pytest.mark.parametrize(
    "spec",
    [
        OperatorSpec(Measurement.HADAMARD2D, Sparsity.HAAR2D, 16, levels=2),
        OperatorSpec(Measurement.DFT2D, Sparsity.TENSOR_DB4, 8),
        OperatorSpec(Measurement.DFT1D, Sparsity.DB4_1D, 128, levels=3),
        OperatorSpec(Measurement.HADAMARD2D, Sparsity.DB4_2D, 8),
    ],
    ids=str,
)
def test_singleton_block_terms_auto_match_generic(spec):
    part = BlockPartition.singletons(spec.dim)
    wv = _weights(spec.dim, seed=11)
    auto = block_norm_terms(spec, part, wv)
    generic = _dense_terms(spec, part, np.arange(part.m), wv)
    for a, g in zip(auto, generic):
        np.testing.assert_allclose(a, g, rtol=1e-12, atol=1e-12 * g.max())
    dens = adapted_isolated(spec, wv)
    np.testing.assert_allclose(dens.pi * dens.normalizer, np.maximum(*generic), rtol=1e-12)
