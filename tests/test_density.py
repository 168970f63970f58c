import numpy as np
import pytest
from reference_transforms import dense_matrix

from avds.density import (
    BlockPartition,
    Density,
    _dense_terms,
    adapted_blocks,
    adapted_isolated,
    baseline_density,
)
from avds.errors import InvalidPartition, InvalidSpec
from avds.support_model import WeightVector, flip, normalize_weights
from avds.transforms import (
    Measurement,
    OperatorSpec,
    Sparsity,
    rows_batch,
)


def random_weights(k, s, seed=0):
    rng = np.random.default_rng(seed)
    return normalize_weights(rng.uniform(0.01, 1.0, size=k), s)


def dense_density(spec, part, wv):
    """The adapted block density from the dense per-block path."""
    numer = np.maximum(*_dense_terms(spec, part.blocks, wv))
    return Density(numer / numer.sum(), float(numer.sum()), kind="adapted_blocks")


# ----------------------------------------------------------------- partitions

def test_vertical_lines_are_grid_columns():
    part = BlockPartition.vertical_lines(4)
    assert [list(b) for b in part.blocks[:2]] == [[0, 1, 2, 3], [4, 5, 6, 7]]


def test_horizontal_lines_are_strided():
    part = BlockPartition.horizontal_lines(4)
    assert list(part.blocks[1]) == [1, 5, 9, 13]


def test_squares_partition_covers():
    part = BlockPartition.squares(4, 2)
    assert part.m == 4
    assert sorted(np.concatenate(part.blocks).tolist()) == list(range(16))
    assert all(len(b) == 4 for b in part.blocks)


def test_invalid_partition_rejected():
    with pytest.raises(InvalidPartition):
        BlockPartition([[0, 1], [1, 2]], kind="bad")


def test_empty_block_rejected():
    for blocks in (
        [np.arange(8), [], np.arange(8, 16)],
        [[]],
        np.zeros((3, 0), dtype=np.int64),
    ):
        with pytest.raises(InvalidPartition, match="at least one index"):
            BlockPartition(blocks, kind="x")


def test_block_that_is_not_an_index_list_rejected():
    for blocks in ([0, 1, 2], np.arange(4), [[0, 1], [[2, 3]]]):
        with pytest.raises(InvalidPartition, match="1D list of indices"):
            BlockPartition(blocks, kind="x")


def test_singleton_partition_is_one_row_per_block_in_order():
    assert BlockPartition([[0], [1], [2]], kind="singletons").m == 3
    for blocks in ([[0, 1], [2]], [[0, 1], [], [2]], [[1], [0], [2]]):
        with pytest.raises(InvalidPartition):
            BlockPartition(blocks, kind="singletons")


@pytest.mark.parametrize(
    "blocks",
    [[[0], [1], [2]], [[1], [0], [2]], [[0, 1], [2, 3]], [[0, 1], [1, 2]], [[0], [2]], [[0], [-1]]],
)
@pytest.mark.parametrize("kind", ["singletons", "vertical_lines"])
def test_block_array_partition_is_checked_like_a_block_list(blocks, kind):
    outcomes = []
    for form in (blocks, np.array(blocks)):
        try:
            outcomes.append(BlockPartition(form, kind=kind).m)
        except InvalidPartition:
            outcomes.append(None)
    assert outcomes[0] == outcomes[1]


def test_singletons_are_one_row_per_block():
    part = BlockPartition.singletons(5)
    assert part.m == part.dim == 5
    assert [list(b) for b in part.blocks] == [[0], [1], [2], [3], [4]]


# ------------------------------------------------------------------ isolated

def test_fourier_uniformity():
    for spec in (
        OperatorSpec(Measurement.DFT1D, Sparsity.IDENTITY, 64),
        OperatorSpec(Measurement.DFT2D, Sparsity.IDENTITY, 8),
    ):
        for seed in range(3):
            wv = random_weights(spec.dim, 5, seed)
            dens = adapted_isolated(spec, wv)
            assert np.max(np.abs(dens.pi - 1.0 / spec.dim)) <= 1e-12


def test_identity_case_uniform_on_support():
    spec = OperatorSpec(Measurement.IDENTITY, Sparsity.IDENTITY, 8)
    omega = np.array([1.0, 1.0, 0, 0, 0, 0, 0, 0])
    dens = adapted_isolated(spec, WeightVector.from_omega(omega))
    assert np.array_equal(dens.pi, np.array([0.5, 0.5, 0, 0, 0, 0, 0, 0]))

    omega = np.array([0.7, 0.5, 0.8, 0, 0, 0, 0, 0])
    wv = normalize_weights(omega, 2)
    dens = adapted_isolated(spec, wv)
    expected = np.zeros(8)
    expected[:3] = 1 / 3
    assert np.max(np.abs(dens.pi - expected)) <= 1e-15


def test_hand_computed_two_by_two():
    # A0 = [[1,1],[1,-1]]/sqrt(2), omega=(0.6,0.4):
    # numerators max{0.5, 0.5} = 0.5 each -> pi = (0.5, 0.5)
    spec = OperatorSpec(Measurement.HADAMARD2D, Sparsity.IDENTITY, 2)
    # use the 1D slice: rows 0 and 2 of the 4x4 operator correspond to the
    # 2x2 Hadamard acting on the first grid column; easier to test densely
    a0 = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    omega = np.array([0.6, 0.4])
    gram = (np.abs(a0) ** 2) @ omega
    inf = (np.abs(a0) ** 2).max(axis=1)
    numer = np.maximum(gram, inf)
    assert np.allclose(numer, [0.5, 0.5])
    assert np.allclose(numer / numer.sum(), [0.5, 0.5])


def test_trace_identity_small():
    for spec in (
        OperatorSpec(Measurement.HADAMARD2D, Sparsity.HAAR2D, 8, levels=2),
        OperatorSpec(Measurement.DFT2D, Sparsity.DB4_2D, 8, levels=2),
        OperatorSpec(Measurement.DFT1D, Sparsity.DB4_1D, 64),
    ):
        wv = random_weights(spec.dim, 7, seed=3)
        energy = np.abs(dense_matrix(spec)) ** 2
        assert abs((energy @ wv.omega).sum() - wv.sparsity) <= 1e-8


def test_flip_equivariance_for_dft():
    spec = OperatorSpec(Measurement.DFT1D, Sparsity.IDENTITY, 16)
    wv = random_weights(16, 3, seed=9)
    d1 = adapted_isolated(spec, wv)
    d2 = adapted_isolated(spec, WeightVector.from_omega(flip(wv.omega)))
    assert np.max(np.abs(flip(d1.pi) - d2.pi)) <= 1e-9


def test_monotonicity_of_numerators():
    spec = OperatorSpec(Measurement.HADAMARD2D, Sparsity.TENSOR_HAAR, 4, levels=2)
    rng = np.random.default_rng(4)
    omega = rng.uniform(0.05, 0.6, size=16)
    energy = np.abs(dense_matrix(spec)) ** 2
    base = np.maximum(energy @ omega, energy.max(axis=1))
    bumped = omega.copy()
    bumped[5] = min(1.0, bumped[5] + 0.3)
    after = np.maximum(energy @ bumped, energy.max(axis=1))
    assert np.all(after >= base - 1e-15)


# ------------------------------------------------------------------- blocks

def test_singleton_gram_and_inf1_values():
    spec = OperatorSpec(Measurement.DFT1D, Sparsity.IDENTITY, 16)
    wv = random_weights(16, 4, seed=2)
    rows = rows_batch(spec, [3])
    expected = (np.abs(rows[0]) ** 2 * wv.omega).sum()
    gram, inf1 = _dense_terms(spec, [[3]], wv)
    assert np.isclose(gram[0], expected, atol=1e-12)
    assert np.isclose(inf1[0], 1.0 / 16, atol=1e-12)

    # trace over singleton blocks equals S
    total = _dense_terms(spec, BlockPartition.singletons(16).blocks, wv)[0].sum()
    assert abs(total - wv.sparsity) <= 1e-10


def test_inf1_norm_of_coordinate_projector():
    spec = OperatorSpec(Measurement.IDENTITY, Sparsity.IDENTITY, 8)
    wv = WeightVector.from_omega(np.full(8, 0.5))
    assert np.isclose(_dense_terms(spec, [[1, 4, 6]], wv)[1][0], 1.0, atol=1e-14)
    # the sup term runs over positive weights only: none of columns 1, 4, 6
    wv = WeightVector.from_omega(np.array([0.5, 0, 0.5, 0.5, 0, 0.5, 0, 0.5]))
    assert _dense_terms(spec, [[1, 4, 6]], wv)[1][0] == 0.0


def test_vertical_line_hand_example():
    # phi = 2x2 normalized Hadamard, W = [[0.2,0.4],[0.1,0.3]]:
    # max_l sum_i |phi_{k,i}|^2 W[l,i] = max(0.3, 0.2) = 0.3
    spec = OperatorSpec(Measurement.HADAMARD2D, Sparsity.IDENTITY, 2)
    w = np.array([[0.2, 0.4], [0.1, 0.3]])
    omega = w.T.ravel()  # vec(W), column-major
    wv = WeightVector.from_omega(omega)
    part = BlockPartition.vertical_lines(2)
    assert np.isclose(_dense_terms(spec, part.blocks[:1], wv)[0][0], 0.3, atol=1e-12)


@pytest.mark.parametrize("kind", ["vertical_lines", "horizontal_lines"])
@pytest.mark.parametrize(
    "meas,spar",
    [
        (Measurement.DFT2D, Sparsity.TENSOR_HAAR),
        (Measurement.HADAMARD2D, Sparsity.TENSOR_DB4),
    ],
)
def test_closed_form_agrees_with_generic(kind, meas, spar):
    side = 8
    spec = OperatorSpec(meas, spar, side, levels=2)
    part = getattr(BlockPartition, kind)(side)
    rng = np.random.default_rng(1)
    wv = WeightVector.from_omega(rng.uniform(0.01, 0.9, size=side * side))
    closed = adapted_blocks(spec, part, wv)
    generic = dense_density(spec, part, wv)
    assert np.max(np.abs(closed.pi - generic.pi)) <= 1e-8
    assert np.isclose(closed.normalizer, generic.normalizer, rtol=1e-8)


def test_auto_matches_generic_on_squares():
    spec = OperatorSpec(Measurement.DFT2D, Sparsity.TENSOR_DB4, 8, levels=2)
    part = BlockPartition.squares(8, 4)
    wv = random_weights(64, 6, seed=8)
    auto = adapted_blocks(spec, part, wv)
    generic = dense_density(spec, part, wv)
    assert np.max(np.abs(auto.pi - generic.pi)) <= 1e-10
    assert np.all(auto.pi >= 0)
    assert abs(auto.pi.sum() - 1) <= 1e-9


def test_uniform_weight_line_value():
    # uniform W = S/K: B_k D_w B_k* = (S/K) I for any line block, so the
    # gram term is S/K and the numerator max{S/K, |phi_k|_inf^2};
    # cross-checked against the dense eigensolve below
    side = 8
    s = 4.0
    spec = OperatorSpec(Measurement.DFT2D, Sparsity.IDENTITY, side)
    wv = WeightVector.from_omega(np.full(side * side, s / side**2))
    part = BlockPartition.vertical_lines(side)
    dens = adapted_blocks(spec, part, wv)
    expected = max(s / side**2, 1.0 / side)
    assert np.allclose(dens.normalizer, side * expected, rtol=1e-10)
    gram = _dense_terms(spec, part.blocks[:1], wv)[0][0]
    assert np.isclose(gram, s / side**2, rtol=1e-10)


def test_adapted_blocks_singletons_matches_isolated():
    spec = OperatorSpec(Measurement.HADAMARD2D, Sparsity.HAAR2D, 4, levels=2)
    wv = random_weights(16, 3, seed=5)
    iso = adapted_isolated(spec, wv)
    blk = dense_density(spec, BlockPartition.singletons(16), wv)
    assert np.max(np.abs(iso.pi - blk.pi)) <= 1e-10


# ----------------------------------------------------------------- baselines

def test_uniform_baseline():
    spec = OperatorSpec(Measurement.DFT2D, Sparsity.IDENTITY, 4)
    part = BlockPartition.vertical_lines(4)
    dens = baseline_density("uniform", spec, part)
    assert np.allclose(dens.pi, 0.25)


def test_coherence_baseline_is_uniform_for_dft():
    spec = OperatorSpec(Measurement.DFT1D, Sparsity.IDENTITY, 32)
    dens = baseline_density("coherence", spec)
    assert np.max(np.abs(dens.pi - 1 / 32)) <= 1e-12


def test_polynomial_baseline_ratio():
    spec = OperatorSpec(Measurement.DFT2D, Sparsity.IDENTITY, 4)
    dens = baseline_density("polynomial", spec, exponent=2.5)
    grid = dens.pi.reshape(4, 4).T  # back to [row, col]
    assert np.isclose(grid[1, 1] / grid[2, 2], (8 / 2) ** 2.5, rtol=1e-12)
    # DC equals the (1,1) value
    assert np.isclose(grid[0, 0], grid[1, 1], rtol=1e-12)


def test_polynomial_rejected_for_1d():
    spec = OperatorSpec(Measurement.DFT1D, Sparsity.IDENTITY, 16)
    with pytest.raises(InvalidSpec):
        baseline_density("polynomial", spec)


def test_density_validation():
    with pytest.raises(InvalidSpec):
        Density(pi=np.array([0.5, 0.4]), normalizer=1.0, kind="uniform")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_density_rejects_non_finite_entries(bad):
    # NaN compares false everywhere, so the sum check alone lets it through
    with pytest.raises(InvalidSpec):
        Density(pi=np.array([0.5, bad, 0.5]), normalizer=1.0, kind="loaded")
