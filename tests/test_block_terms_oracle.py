"""Block-norm terms of `block_norm_terms` against the dense per-block path.

`density._dense_terms` extracts every block's rows and computes both norms
from them; it is the fallback of `block_norm_terms` and the oracle of its
two other sources.  The separable pairs (DFT2D and Hadamard2D with
identity, tensor Haar or tensor DB4) take the line closed form on grid
lines; every pair with energy classes (DFT1D and DFT2D with any
sparsity, Hadamard2D with identity or Haar) takes every other block's sup
term, and a one-row block's Gram term, from the class table; the
remaining terms, and every term of Hadamard2D with the DB4 MRA, come
from the dense path itself.  Partitions: singletons, vertical lines,
horizontal lines, permuted vertical lines, squares and a permuted list of
unequal blocks; a 1D signal of length K is read as a grid of
2^floor(log2(K) / 2) rows, column-major like the 2D grids.  Weights: all
positive, random zeros, zero outside two coefficient-grid columns, and
zero outside two grid rows.

The closed forms assume a unitary factor phi, so they match the dense
path to 1e-12 once the factor's own departure from unitarity,
||phi* phi - I||_2, is checked to be at most 1e-14 (machine precision for
Haar, the DFT, Hadamard and the correctly rounded DB4 taps).  The class
table sums the same energies |a_{j,l}|^2 in another order, so it matches
to 1e-12 as well.
"""

import itertools

import numpy as np
import pytest
from test_transform_oracle import PAIRS, _specs

from avds import density
from avds.density import BlockPartition, _dense_terms, block_norm_terms
from avds.errors import InvalidWeights
from avds.support_model import WeightVector
from avds.transforms import (
    Measurement,
    OperatorSpec,
    Sparsity,
    energy_classes,
    separable_factor,
)

MEASUREMENTS = (Measurement.DFT2D, Measurement.HADAMARD2D)
SEPARABLE = (Sparsity.IDENTITY, Sparsity.TENSOR_HAAR, Sparsity.TENSOR_DB4)
MRA = (Sparsity.HAAR2D, Sparsity.DB4_2D)
CLASSES = [(m, s) for m, s in PAIRS if energy_classes(next(_specs(m, s))) is not None]
WEIGHTS = ("positive", "random_zeros", "zero_columns", "zero_rows")
PARTITIONS = ("vertical", "horizontal", "permuted", "squares")


def _grid(spec) -> tuple[int, int]:
    """(rows, columns) of the index grid: flat index l is cell (l % rows, l // rows)."""
    if spec.is_2d:
        return spec.side, spec.side
    rows = 1 << (spec.dim.bit_length() - 1) // 2
    return rows, spec.dim // rows


def _weights(side, case: str, seed: int) -> WeightVector:
    """Weight matrix W (vec(W) = omega) of the named case; `side` or a (rows, columns) grid."""
    shape = (side, side) if isinstance(side, int) else side
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.05, 0.95, shape)
    if case == "random_zeros":
        w *= rng.random(shape) > 0.4
        w[0, 0] = 0.5
    elif case == "zero_columns":
        w[:, 2:] = 0.0
    elif case == "zero_rows":
        w[2:, :] = 0.0
    return WeightVector(w.T.ravel())


def _partition(side: int, case: str, seed: int) -> BlockPartition:
    if case == "vertical":
        return BlockPartition.vertical_lines(side)
    if case == "horizontal":
        return BlockPartition.horizontal_lines(side)
    if case == "permuted":
        blocks = BlockPartition.vertical_lines(side).table
        order = np.random.default_rng(seed).permutation(side)
        return BlockPartition([blocks[k] for k in order], kind="vertical_lines")
    return BlockPartition.squares(side, max(2, side // 4))


def _class_partition(spec, case: str, seed: int) -> BlockPartition:
    """The named partition of the index grid of `spec`, 1D signals included."""
    rows, cols = _grid(spec)
    k = spec.dim
    if case == "singletons":
        return BlockPartition.singletons(k)
    if case == "unequal":
        rng = np.random.default_rng(seed)
        cuts = np.sort(rng.choice(np.arange(1, k), size=min(k - 2, 7), replace=False))
        return BlockPartition(np.split(rng.permutation(k), cuts), kind="unequal")
    grid = np.arange(k).reshape(cols, rows)  # grid[c, r] = c * rows + r
    if case == "vertical":
        return BlockPartition(grid, kind="vertical_lines")
    if case == "horizontal":
        return BlockPartition(grid.T, kind="horizontal_lines")
    b = min(rows, max(2, rows // 4))  # rows <= cols are powers of two, so b divides both
    tiles = grid.reshape(cols // b, b, rows // b, b).transpose(0, 2, 1, 3)
    return BlockPartition(tiles.reshape(-1, b * b), kind="squares")


def _assert_matches_dense(spec, part, wv):
    fast = block_norm_terms(spec, part, wv)
    dense = _dense_terms(spec, part, np.arange(part.m), wv)
    phi = separable_factor(spec)
    if phi is not None:
        defect = np.linalg.norm(phi.conj().T @ phi - np.eye(spec.side), 2)
        assert defect <= 1e-14
    for f, d in zip(fast, dense):
        np.testing.assert_allclose(f, d, rtol=1e-12, atol=1e-12 * d.max())


def _name(spec):
    return f"{spec.measurement.value}-{spec.sparsity.value}-{spec.size}-L{spec.levels}"


def _cases(pairs, max_dim):
    """Specs of the pairs with K <= max_dim; at K = 1024 the default depth only, as slow."""
    for meas, spar in pairs:
        for spec in _specs(meas, spar):
            if spec.dim < 1024:
                yield pytest.param(spec, id=_name(spec))
            elif spec.dim <= max_dim and spec == OperatorSpec(meas, spar, spec.size):
                yield pytest.param(spec, id=_name(spec), marks=pytest.mark.slow)


@pytest.mark.parametrize("spec", _cases(itertools.product(MEASUREMENTS, SEPARABLE), 1024))
def test_separable_terms_match_dense_path(spec):
    for (p, part_case), (q, weight_case) in itertools.product(
        enumerate(PARTITIONS), enumerate(WEIGHTS)
    ):
        part = _partition(spec.side, part_case, seed=p)
        _assert_matches_dense(spec, part, _weights(spec.side, weight_case, seed=q))


def test_lines_are_read_from_the_block_indices():
    # a partition mixing grid columns, in shuffled order, with 2 x 2 squares
    # over the remaining columns: lines take the closed form block by block
    spec = next(s for s in _specs(Measurement.DFT2D, Sparsity.TENSOR_HAAR) if s.dim == 64)
    side = spec.side
    squares = list(BlockPartition.squares(side, 2).table)
    lines = BlockPartition.vertical_lines(side).table[: side // 2]
    part = BlockPartition(
        [lines[3], squares[-1], lines[0], lines[2]] + squares[side:-1] + [lines[1]],
        kind="mixed",
    )
    for q, case in enumerate(WEIGHTS):
        _assert_matches_dense(spec, part, _weights(side, case, seed=q))


def test_line_blocks_extract_no_rows(monkeypatch):
    spec = next(s for s in _specs(Measurement.HADAMARD2D, Sparsity.TENSOR_DB4) if s.dim == 256)

    def no_rows(*args):
        raise AssertionError("line blocks of a separable operator extract no rows")

    monkeypatch.setattr(density, "rows_batch", no_rows)
    density._TERMS_MEMO.clear()  # a kept result would skip the build under test
    for part_case in ("vertical", "horizontal", "permuted"):
        block_norm_terms(spec, _partition(16, part_case, seed=0), _weights(16, "zero_rows", 0))


@pytest.mark.parametrize("spec", _cases(CLASSES, 1024))
def test_class_terms_match_dense_path(spec):
    assert len(CLASSES) == 11
    for (p, part_case), (q, weight_case) in itertools.product(
        enumerate(("singletons", "vertical", "horizontal", "squares", "unequal")),
        enumerate(WEIGHTS),
    ):
        part = _class_partition(spec, part_case, seed=p)
        _assert_matches_dense(spec, part, _weights(_grid(spec), weight_case, seed=q))


@pytest.mark.parametrize("spec", _cases(itertools.product(MEASUREMENTS, MRA), 256))
def test_mra_terms_are_the_dense_path(spec):
    # Gram terms of blocks of several rows come from the dense path itself;
    # so do the sup terms where there are no energy classes (Hadamard x DB4)
    assert separable_factor(spec) is None
    for (p, part_case), (q, weight_case) in itertools.product(
        enumerate(PARTITIONS), enumerate(WEIGHTS)
    ):
        part = _partition(spec.side, part_case, seed=p)
        wv = _weights(spec.side, weight_case, seed=q)
        (gram, sup), (dense_gram, dense_sup) = (
            block_norm_terms(spec, part, wv),
            _dense_terms(spec, part, np.arange(part.m), wv),
        )
        np.testing.assert_array_equal(gram, dense_gram)
        if energy_classes(spec) is None:
            np.testing.assert_array_equal(sup, dense_sup)
        else:
            np.testing.assert_allclose(sup, dense_sup, rtol=1e-12, atol=1e-12 * dense_sup.max())


def test_class_squares_coherence_extracts_no_rows(monkeypatch):
    def no_rows(*args):
        raise AssertionError("the class table gives every sup term without extracting rows")

    monkeypatch.setattr(density, "rows_batch", no_rows)
    density._TERMS_MEMO.clear()  # a kept result would skip the build under test
    for spar in (Sparsity.TENSOR_DB4, Sparsity.DB4_2D):
        spec = OperatorSpec(Measurement.DFT2D, spar, 16, levels=2)
        for block_side in (2, 4, 16):
            part = BlockPartition.squares(16, block_side)
            assert len(density.baseline_density("coherence", spec, part)) == part.m


@pytest.mark.parametrize("spar", [Sparsity.TENSOR_HAAR, Sparsity.HAAR2D], ids=lambda s: s.value)
@pytest.mark.parametrize("part_case", PARTITIONS)
def test_block_terms_need_a_positive_weight(spar, part_case):
    spec = OperatorSpec(Measurement.DFT2D, spar, 8)
    zero = WeightVector(np.zeros(64))
    with pytest.raises(InvalidWeights):
        block_norm_terms(spec, _partition(8, part_case, seed=0), zero)
