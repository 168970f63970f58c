import dataclasses
import itertools

import numpy as np
import pytest
from reference_masks import draw_mask as reference_draw_mask
from reference_masks import reference_expand_blocks
from scipy import stats

from avds import harness
from avds.density import BlockPartition, Density
from avds.errors import (
    ConfigError,
    DimensionMismatch,
    InfeasibleBudget,
    InvalidPartition,
)
from avds.masks import DISTINCT, IID, Mask, draw_mask, expand_blocks
from avds.support_model import WeightVector
from avds.transforms import MAX_DIM, Measurement, OperatorSpec, Sparsity, rows_batch


def uniform_density(k):
    return Density(np.full(k, 1.0 / k), float(k))


def test_exhaustive_distinct_budget():
    mask = draw_mask(uniform_density(4), 4, mode=DISTINCT, seed=0)
    assert list(mask.indices) == [0, 1, 2, 3]
    assert np.all(mask.multiplicities == 1)


def test_unknown_mode_is_a_config_error():
    # a budget of 3 fits the 8 atoms, so only the mode is wrong
    with pytest.raises(ConfigError, match="mode"):
        draw_mask(uniform_density(8), 3, mode="iid ")


@pytest.mark.parametrize("seed", [-1, np.int64(-5)], ids=["int", "numpy"])
@pytest.mark.parametrize("mode", [IID, DISTINCT])
def test_negative_seed_is_a_config_error(seed, mode):
    with pytest.raises(ConfigError, match="seed"):
        draw_mask(uniform_density(8), 3, mode=mode, seed=seed)


def test_degenerate_density_iid():
    dens = Density(np.array([1.0, 0.0, 0.0]), 1.0)
    mask = draw_mask(dens, 7, mode=IID, seed=3)
    assert list(mask.indices) == [0]
    assert list(mask.multiplicities) == [7]


def test_determinism():
    dens = uniform_density(32)
    a = draw_mask(dens, 8, mode=DISTINCT, seed=42)
    b = draw_mask(dens, 8, mode=DISTINCT, seed=42)
    assert np.array_equal(a.indices, b.indices)
    c = draw_mask(dens, 8, mode=IID, seed=42)
    d = draw_mask(dens, 8, mode=IID, seed=42)
    assert np.array_equal(c.indices, d.indices)
    assert np.array_equal(c.multiplicities, d.multiplicities)


def test_zero_probability_atoms_never_drawn():
    pi = np.array([0.5, 0.0, 0.25, 0.25])
    dens = Density(pi, 1.0)
    for seed in range(5):
        mask = draw_mask(dens, 3, mode=DISTINCT, seed=seed)
        assert 1 not in mask.indices
    with pytest.raises(InfeasibleBudget):
        draw_mask(dens, 4, mode=DISTINCT, seed=0)


def test_iid_multinomial_concentration():
    k, m = 64, 6400
    mask = draw_mask(uniform_density(k), m, mode=IID, seed=11)
    counts = np.zeros(k)
    counts[mask.indices] = mask.multiplicities
    assert counts.sum() == m
    sigma = np.sqrt(m * (1 / k) * (1 - 1 / k))
    assert np.max(np.abs(counts - m / k)) <= 3.5 * sigma


def test_iid_chisquare_nonuniform():
    rng = np.random.default_rng(5)
    pi = rng.uniform(0.5, 2.0, size=32)
    pi /= pi.sum()
    dens = Density(pi, 1.0)
    mask = draw_mask(dens, 100_000, mode=IID, seed=7)
    counts = np.zeros(32)
    counts[mask.indices] = mask.multiplicities
    _, pvalue = stats.chisquare(counts, f_exp=pi * 100_000)
    assert pvalue > 0.01


@pytest.mark.parametrize("budget", [MAX_DIM + 1, 10**12])
def test_iid_budget_above_the_bound_is_infeasible(budget):
    # 10^12 uniforms would take 7.3 TiB; the bound raises before any draw
    with pytest.raises(InfeasibleBudget, match="i.i.d. budget"):
        draw_mask(Density(np.full(8, 1 / 8), 8.0), budget, mode=IID, seed=0)


def test_iid_budget_at_the_bound_draws():
    mask = draw_mask(Density(np.full(8, 1 / 8), 8.0), MAX_DIM, mode=IID, seed=0)
    assert mask.multiplicities.sum() == MAX_DIM


def test_density_and_weights_cannot_change_after_their_checks():
    # draw_mask and the density builders trust these values unchecked
    pi, omega = np.array([0.5, 0.5]), np.array([0.5, 0.25])
    dens, wv = Density(pi, 2.0), WeightVector(omega)
    for value, name, array in ((dens, "pi", pi), (wv, "omega", omega)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, np.array([0.5, 0.4]))
        with pytest.raises(ValueError, match="read-only"):
            getattr(value, name)[0] = 0.4
        # the caller's array is copied, not frozen
        array[0] = 0.0
        assert getattr(value, name)[0] == 0.5
    with pytest.raises(dataclasses.FrozenInstanceError):
        wv.sparsity = 2.0
    assert wv.sparsity == 0.75
    # a partition's blocks were checked to cover each row once
    part = BlockPartition.singletons(4)
    for name in ("table", "sizes", "dim", "kind"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(part, name, getattr(part, name))
    for array in (part.table, part.sizes):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 3
    assert np.array_equal(part.table[:, 0], np.arange(4))
    # the support model is kept for later calls with equal weights
    harness.signal_distribution.cache_clear()
    dist = harness.signal_distribution(WeightVector(np.full(64, 4 / 64)))
    with pytest.raises(dataclasses.FrozenInstanceError):
        dist.weights = WeightVector(np.full(64, 8 / 64))
    with pytest.raises(dataclasses.FrozenInstanceError):
        dist.sparsity = 8
    again = harness.signal_distribution(WeightVector(np.full(64, 4 / 64)))
    assert again is dist and again.sparsity == 4 and again._esp.shape == (65, 5)


def test_expand_blocks_singletons_identity():
    part = BlockPartition.singletons(6)
    mask = Mask(np.array([1, 4]), np.array([1, 1]))
    out = expand_blocks(mask, part)
    assert np.array_equal(out.indices, [1, 4])
    assert out.size / 6 == pytest.approx(2 / 6)


def test_expand_blocks_vertical_lines():
    # blocks 0 and 2 of the 4x4 grid columns
    part = BlockPartition.vertical_lines(4)
    mask = Mask(np.array([0, 2]), np.array([1, 1]))
    out = expand_blocks(mask, part)
    assert list(out.indices) == [0, 1, 2, 3, 8, 9, 10, 11]
    assert np.all(out.multiplicities == 1)
    assert out.size / 16 == pytest.approx(0.5)


def test_expand_blocks_iid_multiplicities():
    part = BlockPartition.horizontal_lines(4)
    mask = Mask(np.array([1]), np.array([3]))
    out = expand_blocks(mask, part)
    assert list(out.indices) == [1, 5, 9, 13]
    assert np.all(out.multiplicities == 3)


def test_expand_blocks_distinct_no_duplicates():
    part = BlockPartition.squares(4, 2)
    mask = Mask(np.arange(4), np.ones(4, dtype=int))
    out = expand_blocks(mask, part)
    assert len(np.unique(out.indices)) == 16


def test_expand_blocks_partition_mismatch():
    part = BlockPartition.vertical_lines(4)
    mask = Mask(np.array([7]), np.array([1]))
    with pytest.raises(InvalidPartition):
        expand_blocks(mask, part)


def test_expand_blocks_rejects_a_negative_block_index():
    # -1 would silently expand to the last block
    part = BlockPartition.vertical_lines(4)
    with pytest.raises(InvalidPartition):
        expand_blocks(Mask(np.array([-1, 2]), np.array([1, 1])), part)


def unequal_blocks(k, seed):
    """A permuted cover of {0..k-1} by blocks of unequal sizes."""
    rng = np.random.default_rng(seed)
    cuts = np.sort(rng.choice(np.arange(1, k), size=k // 4, replace=False))
    return BlockPartition(np.split(rng.permutation(k), cuts), kind="unequal")


EXPANSION_PARTITIONS = {
    "singletons": lambda: BlockPartition.singletons(64),
    "vertical_lines": lambda: BlockPartition.vertical_lines(8),
    "horizontal_lines": lambda: BlockPartition.horizontal_lines(8),
    "squares": lambda: BlockPartition.squares(8, 2),
    "unequal": lambda: unequal_blocks(64, 3),
    "equal_array": lambda: BlockPartition(
        np.random.default_rng(5).permutation(64).reshape(16, 4), kind="equal"
    ),
}


@pytest.mark.parametrize("mode", [DISTINCT, IID])
@pytest.mark.parametrize("name", sorted(EXPANSION_PARTITIONS))
def test_block_expansion_matches_per_block_reference(name, mode):
    part = EXPANSION_PARTITIONS[name]()
    rng = np.random.default_rng(17)
    repeats = 0
    for seed in range(20):
        pi = rng.uniform(0.0, 1.0, part.m) * (rng.random(part.m) > 0.2)
        pi[0] += 0.5  # at least one positive atom
        dens = Density(pi / pi.sum(), 1.0)
        budget = int(rng.integers(1, np.count_nonzero(pi) + 1))
        mask = draw_mask(dens, budget, mode=mode, seed=seed)
        want = reference_expand_blocks(mask, part)
        got = expand_blocks(mask, part)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.multiplicities, want.multiplicities)
        assert got.indices.dtype == got.multiplicities.dtype == np.int64
        assert got.n_draws == want.n_draws
        repeats += int(np.any(got.multiplicities > 1))
        # the helper keeps drawn-block order and repeats any per-block value
        scale = rng.standard_normal(mask.size)
        rows, mult, scale_rows = part.block_rows(mask.indices, mask.multiplicities, scale)
        in_order = [part.table[k, : part.sizes[k]] for k in mask.indices]
        assert np.array_equal(rows, np.concatenate(in_order))
        assert np.array_equal(mult[np.argsort(rows)], want.multiplicities)
        per_row = [np.full(b.size, s) for s, b in zip(scale, in_order)]
        assert np.array_equal(scale_rows, np.concatenate(per_row))
    assert (repeats > 0) == (mode == IID)
    for bad in (part.m, -1):
        mask = Mask(np.array([0, bad]), np.array([1, 2]))
        for expand in (reference_expand_blocks, expand_blocks):
            with pytest.raises(InvalidPartition):
                expand(mask, part)


def test_block_expansion_of_an_empty_mask():
    empty = Mask(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
    for part in (BlockPartition.singletons(4), BlockPartition.vertical_lines(2)):
        out = expand_blocks(empty, part)
        assert out.size == 0 and out.multiplicities.size == 0


# each entry point of an index array, called on one array, and its error class
INDEX_ENTRY_POINTS = {
    "rows_batch": (
        lambda x: rows_batch(OperatorSpec(Measurement.HADAMARD2D, Sparsity.HAAR2D, 4), x),
        DimensionMismatch,
    ),
    "Mask": (lambda x: Mask(x, np.ones(x.shape, np.int64)), DimensionMismatch),
    "BlockPartition": (lambda x: BlockPartition([x], kind="x"), InvalidPartition),
}


@pytest.mark.parametrize(
    "indices",
    [np.array([0.0, 1.0]), np.array([True, False]), np.array([[0, 1]]), np.array([], float)],
    ids=["float", "bool", "2-d", "empty-float"],
)
@pytest.mark.parametrize("entry", INDEX_ENTRY_POINTS)
def test_one_index_rule_for_rows_masks_and_blocks(entry, indices):
    # a float or bool index is never cast to an index, and an empty array of
    # any dtype holds none
    call, error = INDEX_ENTRY_POINTS[entry]
    if indices.size:
        with pytest.raises(error, match="must be a 1-D integer array"):
            call(indices)
    elif entry == "BlockPartition":
        # the rule passes it; a block must also hold an index
        with pytest.raises(InvalidPartition, match="at least one index"):
            call(indices)
    else:
        call(indices)


def skewed_density(seed):
    """A density of up to 300 atoms with about a fifth of them at zero."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 300))
    pi = rng.uniform(0.2, 1.0, size=k) ** rng.uniform(1.0, 3.0)
    pi[rng.random(k) < 0.2] = 0.0
    if not pi.any():
        pi[0] = 1.0
    return Density(pi / pi.sum(), 1.0)


@pytest.mark.parametrize("seed", range(20))
def test_iid_masks_match_unique_reference(seed):
    # the bincount draw returns np.unique's sorted atoms and counts
    dens = skewed_density(seed)
    for budget in (1, 7, len(dens), 10 * len(dens)):
        got = draw_mask(dens, budget, mode=IID, seed=seed)
        want = reference_draw_mask(dens, budget, mode=IID, seed=seed)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.multiplicities, want.multiplicities)
        assert got.n_draws == want.n_draws == budget


def successive_sampling_law(pi, budget):
    """Exact probability of each distinct set: sum over the orders of drawing it."""
    atoms = np.flatnonzero(pi > 0)
    law = {}
    for order in itertools.permutations(atoms, budget):
        prob, left = 1.0, 1.0
        for atom in order:
            prob *= pi[atom] / left
            left -= pi[atom]
        key = tuple(sorted(order))
        law[key] = law.get(key, 0.0) + prob
    return law


@pytest.mark.parametrize("draw", [draw_mask, reference_draw_mask], ids=["keys", "per-draw"])
@pytest.mark.parametrize("budget", [2, 3])
def test_distinct_masks_follow_successive_sampling_law(draw, budget):
    # i.i.d. draws with repeats skipped: chi-square of the drawn sets, over
    # fixed seeds, against the law enumerated from every ordered draw
    pi = np.array([0.05, 0.3, 0.0, 0.1, 0.4, 0.15])
    dens = Density(pi, 1.0)
    law = successive_sampling_law(pi, budget)
    assert sum(law.values()) == pytest.approx(1.0)
    n = 20_000
    seen = {key: 0 for key in law}
    for seed in range(n):
        seen[tuple(draw(dens, budget, mode=DISTINCT, seed=seed).indices.tolist())] += 1
    _, pvalue = stats.chisquare(list(seen.values()), f_exp=[n * p for p in law.values()])
    assert pvalue > 0.01


@pytest.mark.parametrize("seed", range(40))
def test_distinct_masks_are_budget_positive_atoms(seed):
    # skewed densities with zero atoms; budgets from 1 up to every atom.
    # n_draws is the number of keys kept: one per positive-mass atom
    dens = skewed_density(seed)
    atoms = np.flatnonzero(dens.pi)
    for budget in sorted({1, max(1, atoms.size // 2), max(1, atoms.size - 1), atoms.size}):
        mask = draw_mask(dens, budget, mode=DISTINCT, seed=seed)
        assert mask.size == budget
        assert np.all(np.diff(mask.indices) > 0)
        assert np.all(np.isin(mask.indices, atoms))
        assert np.all(mask.multiplicities == 1)
        assert mask.n_draws == atoms.size


@pytest.mark.parametrize("seed", range(20))
def test_distinct_keys_belong_to_atoms_not_to_positive_ranks(seed):
    # atom k keeps its E_k whatever the zero set: with atom 0 zeroed and the
    # rest rescaled, every other key shifts by one constant, so the atoms
    # of the full mask other than 0 are among the masked density's picks
    full = Density(np.full(16, 1 / 16), 16.0)
    zeroed = Density(np.r_[0.0, np.full(15, 1 / 15)], 15.0)
    for budget in (1, 4, 8):
        kept = draw_mask(full, budget, mode=DISTINCT, seed=seed).indices
        picks = draw_mask(zeroed, budget, mode=DISTINCT, seed=seed).indices
        assert np.all(np.isin(kept[kept != 0], picks))


def test_near_full_budget_takes_every_positive_atom():
    # one atom holds 1e-12 of the mass: i.i.d. draws would need ~1e12 of
    # them to collect it, the keys need one per atom
    pi = np.r_[np.full(9, (1 - 1e-12) / 9), 1e-12, 0.0]
    dens = Density(pi, 1.0)
    mask = draw_mask(dens, 10, mode=DISTINCT, seed=0)
    assert np.array_equal(mask.indices, np.arange(10))
    assert mask.n_draws == 10
    with pytest.raises(InfeasibleBudget, match="exceeds"):
        draw_mask(dens, 11, mode=DISTINCT, seed=0)
