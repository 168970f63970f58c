"""`density._dense_terms` against the block-norm routines it replaced.

`_dense_terms` takes the Gram term from one eigensolve per block and the
sup term from the block's largest positive-weight column energy.  The
oracle is `tests/reference_density.py`: the Gram term from the dense Gram
of each block, the sup term from a chunked scan of B* B (factorised on
product-set blocks of a separable operator), and the isolated rows from
`_streamed_terms`.  Every (measurement, sparsity) pair at every size with
K <= 1024 and every wavelet depth; K = 1024 at the default depth only, as
slow.  Partitions: singletons, grid columns given as a list and as a 2D
array, squares of side 4 (2D only) and a list of blocks of unequal sizes,
which run in one stacked group per size.  A 1D signal of length K takes "columns" of
2^floor(log2(K) / 2) consecutive indices.  Weights: all positive, random
zeros, and zero outside two columns.  Both terms agree within 1e-12 of
the largest term.
"""

import numpy as np
import pytest
from reference_density import _streamed_terms, reference_dense_terms
from test_transform_oracle import PAIRS, _specs

from avds.density import BlockPartition, _dense_terms
from avds.errors import InvalidPartition
from avds.support_model import WeightVector
from avds.transforms import Measurement, OperatorSpec, Sparsity, separable_factor

WEIGHTS = ("positive", "random_zeros", "two_columns")
PARTITIONS = ("singletons", "columns", "column_array", "squares", "unequal")


def _column(spec) -> int:
    return spec.side if spec.is_2d else 1 << (spec.dim.bit_length() - 1) // 2


def _weights(spec, case: str, seed: int) -> WeightVector:
    rng = np.random.default_rng(seed)
    omega = rng.uniform(0.05, 0.95, spec.dim)
    if case == "random_zeros":
        omega *= rng.random(spec.dim) > 0.4
        omega[0] = 0.5
    elif case == "two_columns":
        col = _column(spec)
        keep = np.zeros(spec.dim, dtype=bool)
        keep[:col] = True
        keep[spec.dim // 2 : spec.dim // 2 + col] = True
        omega *= keep
    return WeightVector.from_omega(omega)


def _partition(spec, case: str, seed: int):
    k, col = spec.dim, _column(spec)
    if case == "singletons":
        return BlockPartition.singletons(k)
    if case in ("columns", "column_array"):
        blocks = np.arange(k).reshape(k // col, col)
        return BlockPartition(blocks if case == "column_array" else list(blocks), "lines")
    if case == "squares":
        return BlockPartition.squares(spec.side, min(4, spec.side)) if spec.is_2d else None
    rng = np.random.default_rng(seed)
    # at most K - 2 cuts, so that some block holds two rows and the order is free
    cuts = np.sort(rng.choice(np.arange(1, k), size=min(k - 2, 7), replace=False))
    return BlockPartition([np.sort(b) for b in np.split(rng.permutation(k), cuts)], "unequal")


def _cases():
    for meas, spar in PAIRS:
        for spec in _specs(meas, spar):
            name = f"{meas.value}-{spar.value}-{spec.size}-L{spec.levels}"
            if spec.dim < 1024:
                yield pytest.param(spec, id=name)
            elif spec == OperatorSpec(meas, spar, spec.size):
                yield pytest.param(spec, id=name, marks=pytest.mark.slow)


@pytest.mark.parametrize("spec", _cases())
def test_dense_terms_match_reference(spec):
    phi = separable_factor(spec)
    for p, part_case in enumerate(PARTITIONS):
        part = _partition(spec, part_case, seed=p)
        if part is None:
            continue
        for q, weight_case in enumerate(WEIGHTS):
            wv = _weights(spec, weight_case, seed=q)
            got = _dense_terms(spec, part, np.arange(part.m), wv)
            if part_case == "singletons":
                want = _streamed_terms(spec, wv.omega)
            else:
                want = reference_dense_terms(
                    spec, [part.block_rows([b])[0] for b in range(part.m)], wv, phi
                )
            for g, w in zip(got, want):
                np.testing.assert_allclose(
                    g, w, rtol=1e-12, atol=1e-12 * w.max(), err_msg=f"{part_case} {weight_case}"
                )


def test_dense_terms_reject_oversized_blocks():
    # the guard runs before any row is extracted
    spec = OperatorSpec(Measurement.DFT1D, Sparsity.IDENTITY, 8192)
    wv = WeightVector.from_omega(np.full(8192, 0.5))
    for blocks in ([np.arange(8192)], np.arange(8192)[None]):
        with pytest.raises(InvalidPartition):
            _dense_terms(spec, BlockPartition(blocks, "whole"), [0], wv)
