import numpy as np
import pytest
from reference_masks import draw_mask as reference_draw_mask
from scipy import stats

from avds.density import BlockPartition, Density
from avds.errors import InfeasibleBudget, UnnormalizedDensity
from avds.masks import DISTINCT, IID, Mask, draw_mask, expand_blocks


def uniform_density(k):
    return Density(np.full(k, 1.0 / k), float(k), kind="uniform")


def test_exhaustive_distinct_budget():
    mask = draw_mask(uniform_density(4), 4, mode=DISTINCT, seed=0)
    assert list(mask.indices) == [0, 1, 2, 3]
    assert np.all(mask.multiplicities == 1)


def test_degenerate_density_iid():
    dens = Density(np.array([1.0, 0.0, 0.0]), 1.0, kind="uniform")
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
    dens = Density(pi, 1.0, kind="uniform")
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
    dens = Density(pi, 1.0, kind="uniform")
    mask = draw_mask(dens, 100_000, mode=IID, seed=7)
    counts = np.zeros(32)
    counts[mask.indices] = mask.multiplicities
    _, pvalue = stats.chisquare(counts, f_exp=pi * 100_000)
    assert pvalue > 0.01


def test_unnormalized_density_rejected():
    dens = uniform_density(2)
    dens.pi = np.array([0.5, 0.4])  # corrupt after construction
    with pytest.raises(UnnormalizedDensity):
        draw_mask(dens, 1, mode=IID, seed=0)


def test_expand_blocks_singletons_identity():
    part = BlockPartition.singletons(6)
    mask = Mask(np.array([1, 4]), np.array([1, 1]), mode=DISTINCT)
    out = expand_blocks(mask, part)
    assert np.array_equal(out.indices, [1, 4])
    assert out.covered_fraction == pytest.approx(2 / 6)


def test_expand_blocks_vertical_lines():
    # blocks 0 and 2 of the 4x4 grid columns
    part = BlockPartition.vertical_lines(4)
    mask = Mask(np.array([0, 2]), np.array([1, 1]), mode=DISTINCT)
    out = expand_blocks(mask, part)
    assert list(out.indices) == [0, 1, 2, 3, 8, 9, 10, 11]
    assert np.all(out.multiplicities == 1)
    assert out.covered_fraction == pytest.approx(0.5)


def test_expand_blocks_iid_multiplicities():
    part = BlockPartition.horizontal_lines(4)
    mask = Mask(np.array([1]), np.array([3]), mode=IID)
    out = expand_blocks(mask, part)
    assert list(out.indices) == [1, 5, 9, 13]
    assert np.all(out.multiplicities == 3)


def test_expand_blocks_distinct_no_duplicates():
    part = BlockPartition.squares(4, 2)
    mask = Mask(np.arange(4), np.ones(4, dtype=int), mode=DISTINCT)
    out = expand_blocks(mask, part)
    assert len(np.unique(out.indices)) == 16


def test_expand_blocks_partition_mismatch():
    from avds.errors import InvalidPartition

    part = BlockPartition.vertical_lines(4)
    mask = Mask(np.array([7]), np.array([1]), mode=DISTINCT)
    with pytest.raises(InvalidPartition):
        expand_blocks(mask, part)


@pytest.mark.parametrize("k,budget,seed", [(16, 1, 0), (64, 20, 1), (500, 300, 7), (4096, 409, 3)])
def test_distinct_n_draws_counts_consumed_draws(k, budget, seed):
    # replay the generator: n_draws is the position of the draw that
    # brought in the budget-th new atom, and the mask is the atoms seen
    rng = np.random.default_rng(11)
    pi = rng.uniform(0.1, 1.0, size=k) ** 4
    dens = Density(pi / pi.sum(), 1.0, kind="test")
    mask = draw_mask(dens, budget, mode=DISTINCT, seed=seed)
    cum = np.cumsum(dens.pi)
    cum /= cum[-1]
    stream = np.searchsorted(cum, np.random.default_rng(seed).random(64 * k), side="left")
    first = {}
    for pos, idx in enumerate(stream):
        first.setdefault(int(idx), pos)
        if len(first) == budget:
            break
    assert mask.n_draws == pos + 1
    assert np.array_equal(mask.indices, np.sort(list(first)))


@pytest.mark.parametrize("seed", range(40))
def test_distinct_masks_match_per_draw_reference(seed):
    # skewed densities with zero atoms; budgets from 1 up to every atom
    # (the smallest atom keeps about 1e-4 of the mass or more, so the
    # reference's per-draw loop stays within some ten thousand draws)
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 300))
    pi = rng.uniform(0.2, 1.0, size=k) ** rng.uniform(1.0, 3.0)
    pi[rng.random(k) < 0.2] = 0.0
    if not pi.any():
        pi[0] = 1.0
    dens = Density(pi / pi.sum(), 1.0, kind="test")
    atoms = int(np.count_nonzero(dens.pi))
    for budget in sorted({1, max(1, atoms // 2), max(1, atoms - 1), atoms}):
        got = draw_mask(dens, budget, mode=DISTINCT, seed=seed)
        want = reference_draw_mask(dens, budget, mode=DISTINCT, seed=seed)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.multiplicities, want.multiplicities)
        assert got.n_draws == want.n_draws


def test_distinct_draws_are_capped(monkeypatch):
    # the last atom holds 1e-12 of the mass: collecting it would take ~1e12 draws
    pi = np.r_[np.full(9, (1 - 1e-12) / 9), 1e-12]
    dens = Density(pi, 1.0, kind="test")
    monkeypatch.setattr("avds.masks.MAX_DISTINCT_DRAWS", 1 << 16)
    with pytest.raises(InfeasibleBudget, match="draws"):
        draw_mask(dens, 10, mode=DISTINCT, seed=0)
    assert draw_mask(dens, 9, mode=DISTINCT, seed=0).size == 9
