import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_density import (
    _grid_line,
    reference_horizontal_lines,
    reference_squares,
    reference_vertical_lines,
)
from reference_transforms import dense_matrix

from avds import density
from avds.density import (
    BlockPartition,
    Density,
    _dense_terms,
    _grid_lines,
    adapted_blocks,
    adapted_isolated,
    baseline_density,
    block_norm_terms,
)
from avds.errors import InvalidPartition, InvalidSpec, InvalidWeights
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
    numer = np.maximum(*_dense_terms(spec, part, np.arange(part.m), wv))
    return Density(numer / numer.sum(), float(numer.sum()))


# ----------------------------------------------------------------- partitions

def test_vertical_lines_are_grid_columns():
    part = BlockPartition.vertical_lines(4)
    assert part.table[:2].tolist() == [[0, 1, 2, 3], [4, 5, 6, 7]]


def test_horizontal_lines_are_strided():
    part = BlockPartition.horizontal_lines(4)
    assert part.table[1].tolist() == [1, 5, 9, 13]


def test_squares_partition_covers():
    part = BlockPartition.squares(4, 2)
    assert part.m == 4
    assert sorted(part.table.ravel().tolist()) == list(range(16))
    assert part.table.shape == (4, 4)


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
    floats = [[0.7, 1.2], [2.9, 3.0]]  # would be cast to the blocks [0, 1] and [2, 3]
    for blocks in (
        [0, 1, 2],
        np.arange(4),
        [[0, 1], [[2, 3]]],
        floats,
        np.array(floats),
        [[False, True]],
    ):
        with pytest.raises(InvalidPartition, match="1-D integer array"):
            BlockPartition(blocks, kind="x")


def test_singleton_partition_is_one_row_per_block_in_order():
    # the rule follows the blocks, not the label
    for kind in ("singletons", "x"):
        assert BlockPartition([[0], [1], [2]], kind=kind).m == 3
        assert BlockPartition([[0, 1], [2]], kind=kind).m == 2
        for blocks in ([[0, 1], [], [2]], [[1], [0], [2]], np.array([[2], [0], [1]])):
            with pytest.raises(InvalidPartition):
                BlockPartition(blocks, kind=kind)


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
    assert part.table.tolist() == [[0], [1], [2], [3], [4]]


@pytest.mark.parametrize("side", range(2, 65))
def test_grid_constructors_and_lines_match_the_block_loops(side):
    rng = np.random.default_rng(side)
    shuffled = [rng.permutation(b) for b in reference_vertical_lines(side)[::-1]]
    built = [
        (BlockPartition.vertical_lines(side), reference_vertical_lines(side)),
        (BlockPartition.horizontal_lines(side), reference_horizontal_lines(side)),
        (BlockPartition(shuffled, "shuffled_lines"), shuffled),
    ] + [
        (BlockPartition.squares(side, b), reference_squares(side, b))
        for b in range(1, side + 1)
        if side % b == 0
    ]
    for part, blocks in built:
        want = BlockPartition(blocks, part.kind)
        assert np.array_equal(part.table, want.table)
        assert np.array_equal(part.sizes, want.sizes)
        axis, line = _grid_lines(part, side)
        got = [None if a < 0 else (a, n) for a, n in zip(axis.tolist(), line.tolist())]
        assert got == [_grid_line(b, side) for b in blocks]


@pytest.mark.parametrize("block_side", [0, -4, 3, 9])
def test_squares_need_a_dividing_side_in_range(block_side):
    with pytest.raises(InvalidPartition):
        BlockPartition.squares(8, block_side)


def _input_blocks(case: str, side: int, seed: int) -> list:
    """Blocks of the named partition of a side x side grid, shuffled unless each holds one row."""
    rng = np.random.default_rng(seed)
    k = side * side
    if case == "singletons":
        return [np.array([i]) for i in range(k)]
    if case == "unequal":
        cuts = np.sort(rng.choice(np.arange(1, k), size=min(k - 1, side), replace=False))
        return np.split(rng.permutation(k), cuts)
    if case == "squares":
        divisors = [b for b in range(1, side + 1) if side % b == 0]
        blocks = reference_squares(side, int(rng.choice(divisors)))
    elif case == "vertical":
        blocks = reference_vertical_lines(side)
    else:
        blocks = reference_horizontal_lines(side)
    if len(blocks) == k:  # one-row blocks are a partition in index order only
        return blocks
    return [blocks[i] for i in rng.permutation(len(blocks))]


@settings(max_examples=80, deadline=None)
@given(
    case=st.sampled_from(["singletons", "vertical", "horizontal", "squares", "unequal"]),
    side=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_rows_return_the_input_blocks(case, side, seed):
    blocks = _input_blocks(case, side, seed)
    forms = [BlockPartition(blocks, case)]
    if len({b.size for b in blocks}) == 1:
        forms.append(BlockPartition(np.array(blocks), case))
    ids = np.random.default_rng(seed).integers(0, len(blocks), size=2 * len(blocks))
    for part in forms:
        assert np.array_equal(part.table, forms[0].table)
        assert np.array_equal(part.sizes, forms[0].sizes)
        assert part.m == len(blocks) and part.dim == side * side
        for k, block in enumerate(blocks):
            assert np.array_equal(part.block_rows([k])[0], block)
            assert np.array_equal(part.table[k, : part.sizes[k]], block)
        rows, pos = part.block_rows(ids, np.arange(ids.size))
        assert np.array_equal(rows, np.concatenate([blocks[k] for k in ids]))
        assert np.array_equal(pos, np.repeat(np.arange(ids.size), [blocks[k].size for k in ids]))


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
    dens = adapted_isolated(spec, WeightVector(omega))
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
    d2 = adapted_isolated(spec, WeightVector(flip(wv.omega)))
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
    gram, inf1 = _dense_terms(spec, BlockPartition.singletons(16), [3], wv)
    assert np.isclose(gram[0], expected, atol=1e-12)
    assert np.isclose(inf1[0], 1.0 / 16, atol=1e-12)

    # trace over singleton blocks equals S
    total = _dense_terms(spec, BlockPartition.singletons(16), np.arange(16), wv)[0].sum()
    assert abs(total - wv.sparsity) <= 1e-10


def test_inf1_norm_of_coordinate_projector():
    spec = OperatorSpec(Measurement.IDENTITY, Sparsity.IDENTITY, 8)
    part = BlockPartition([[1, 4, 6], [0, 2, 3, 5, 7]], kind="pair")
    wv = WeightVector(np.full(8, 0.5))
    assert np.isclose(_dense_terms(spec, part, [0], wv)[1][0], 1.0, atol=1e-14)
    # the sup term runs over positive weights only: none of columns 1, 4, 6
    wv = WeightVector(np.array([0.5, 0, 0.5, 0.5, 0, 0.5, 0, 0.5]))
    assert _dense_terms(spec, part, [0], wv)[1][0] == 0.0


def test_vertical_line_hand_example():
    # phi = 2x2 normalized Hadamard, W = [[0.2,0.4],[0.1,0.3]]:
    # max_l sum_i |phi_{k,i}|^2 W[l,i] = max(0.3, 0.2) = 0.3
    spec = OperatorSpec(Measurement.HADAMARD2D, Sparsity.IDENTITY, 2)
    w = np.array([[0.2, 0.4], [0.1, 0.3]])
    omega = w.T.ravel()  # vec(W), column-major
    wv = WeightVector(omega)
    part = BlockPartition.vertical_lines(2)
    assert np.isclose(_dense_terms(spec, part, [0], wv)[0][0], 0.3, atol=1e-12)


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
    wv = WeightVector(rng.uniform(0.01, 0.9, size=side * side))
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
    wv = WeightVector(np.full(side * side, s / side**2))
    part = BlockPartition.vertical_lines(side)
    dens = adapted_blocks(spec, part, wv)
    expected = max(s / side**2, 1.0 / side)
    assert np.allclose(dens.normalizer, side * expected, rtol=1e-10)
    gram = _dense_terms(spec, part, [0], wv)[0][0]
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
    dens = baseline_density("polynomial", spec)
    grid = dens.pi.reshape(4, 4).T  # back to [row, col]
    assert np.isclose(grid[1, 1] / grid[2, 2], (8 / 2) ** 2.5, rtol=1e-12)
    # DC equals the (1,1) value
    assert np.isclose(grid[0, 0], grid[1, 1], rtol=1e-12)


def test_polynomial_rejected_for_1d():
    spec = OperatorSpec(Measurement.DFT1D, Sparsity.IDENTITY, 16)
    with pytest.raises(InvalidSpec):
        baseline_density("polynomial", spec)


@pytest.mark.parametrize("spar", [Sparsity.HAAR2D, Sparsity.TENSOR_DB4], ids=lambda s: s.value)
def test_mismatched_weights_and_partitions_raise_their_own_class(spar):
    spec = OperatorSpec(Measurement.DFT2D, spar, 8)
    short = WeightVector(np.full(16, 0.5))
    fits = WeightVector(np.full(64, 0.5))
    parts = (BlockPartition.singletons(64), BlockPartition.vertical_lines(8))
    for part in parts:
        with pytest.raises(InvalidWeights):
            block_norm_terms(spec, part, short)
        with pytest.raises(InvalidWeights):
            adapted_blocks(spec, part, short)
    with pytest.raises(InvalidWeights):
        adapted_isolated(spec, short)
    for part in (BlockPartition.singletons(16), BlockPartition.vertical_lines(4)):
        for weights in (short, fits):
            with pytest.raises(InvalidPartition):
                block_norm_terms(spec, part, weights)
        with pytest.raises(InvalidPartition):
            baseline_density("coherence", spec, part)


def test_density_validation():
    with pytest.raises(InvalidSpec):
        Density(pi=np.array([0.5, 0.4]), normalizer=1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_density_rejects_non_finite_entries(bad):
    # NaN compares false everywhere, so the sum check alone lets it through
    with pytest.raises(InvalidSpec):
        Density(pi=np.array([0.5, bad, 0.5]), normalizer=1.0)


def _counting_term_builds(monkeypatch):
    """Count the block-term builds behind the memo, starting from an empty memo."""
    builds = []
    build = density._build_terms
    monkeypatch.setattr(density, "_build_terms", lambda *args: builds.append(args) or build(*args))
    density._TERMS_MEMO.clear()
    return builds


def _memo_case():
    spec = OperatorSpec(Measurement.HADAMARD2D, Sparsity.HAAR2D, 16, levels=2)
    return spec, BlockPartition.squares(16, 4), random_weights(256, 6, seed=3)


def test_block_terms_memo_hits_on_equal_content(monkeypatch):
    builds = _counting_term_builds(monkeypatch)
    spec, part, wv = _memo_case()
    first = block_norm_terms(spec, part, wv)
    # new objects of equal content: spec, partition (from a list) and weights
    again = block_norm_terms(
        OperatorSpec(Measurement.HADAMARD2D, Sparsity.HAAR2D, 16, levels=2),
        BlockPartition(list(part.table), kind="another label"),
        WeightVector(wv.omega.copy()),
    )
    assert len(builds) == 1
    for got, want in zip(again, first):
        assert np.array_equal(got, want)
    # the density and a second call share the build
    adapted_blocks(spec, part, wv)
    assert len(builds) == 1


def test_block_terms_memo_misses_on_other_content(monkeypatch):
    builds = _counting_term_builds(monkeypatch)
    spec, part, wv = _memo_case()
    block_norm_terms(spec, part, wv)
    omega = wv.omega.copy()
    omega[[0, 1]] = omega[[1, 0]]
    block_norm_terms(spec, part, WeightVector(omega))  # another omega
    block_norm_terms(spec, BlockPartition.squares(16, 2), wv)  # another partition
    density._norm_terms(spec, part, wv, gram=False)  # no Gram terms
    assert len(builds) == 4
    # the memo keeps the last two: the first content was dropped
    block_norm_terms(spec, BlockPartition.squares(16, 2), wv)
    assert len(builds) == 4
    block_norm_terms(spec, part, wv)
    assert len(builds) == 5


def test_block_terms_memo_hands_out_copies(monkeypatch):
    builds = _counting_term_builds(monkeypatch)
    spec, part, wv = _memo_case()
    gram, sup = block_norm_terms(spec, part, wv)
    want = gram.copy(), sup.copy()
    gram[:] = -1.0
    sup[0] = np.nan
    for got, ref in zip(block_norm_terms(spec, part, wv), want):
        assert np.array_equal(got, ref)
    assert len(builds) == 1
