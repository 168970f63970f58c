import itertools
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import reference_support
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_support import (
    reference_normalize_weights,
    sequential_path_log_prob,
    support_prob,
)

from avds import support_model
from avds.errors import ConfigError, InvalidWeights
from avds.support_model import (
    MAX_ESP_ENTRIES,
    SupportDistribution,
    WeightVector,
    draw_signals,
    estimate_weights,
    flip,
    normalize_weights,
    sample_supports,
)

# the exact sampler and the independent rejection sampler, by name
SAMPLERS = {"exact": sample_supports, "rejection": reference_support.rejection_supports}


def enumerated_probs(omega, s):
    """Brute-force oracle: unnormalised mass of every size-s support."""
    k = len(omega)
    supports = list(itertools.combinations(range(k), s))
    mass = []
    for sup in supports:
        p = 1.0
        for i in range(k):
            p *= omega[i] if i in sup else 1.0 - omega[i]
        mass.append(p)
    mass = np.array(mass)
    return supports, mass / mass.sum()


def test_support_prob_k3_example():
    dist = SupportDistribution(WeightVector([0.5, 0.3, 0.2]))
    assert np.isclose(support_prob(dist, [0]), 0.28 / 0.47, atol=1e-12)
    assert np.isclose(support_prob(dist, [1]), 0.12 / 0.47, atol=1e-12)
    assert np.isclose(support_prob(dist, [2]), 0.07 / 0.47, atol=1e-12)


def test_support_prob_matches_enumeration_and_sums_to_one():
    rng = np.random.default_rng(5)
    omega = rng.uniform(0.05, 0.95, size=6)
    omega = omega * (3.0 / omega.sum())
    omega = np.clip(omega, 0, 1)
    wv = normalize_weights(omega, 3)
    dist = SupportDistribution(wv)
    supports, probs = enumerated_probs(wv.omega, 3)
    total = 0.0
    for sup, p in zip(supports, probs):
        got = support_prob(dist, list(sup))
        assert np.isclose(got, p, atol=1e-12)
        total += got
    assert abs(total - 1.0) <= 1e-12


def test_support_prob_wrong_size_is_zero():
    dist = SupportDistribution(WeightVector([0.5, 0.3, 0.2]))
    assert support_prob(dist, [0, 1]) == 0.0


def test_support_prob_zero_and_one_weights():
    wv = WeightVector([1.0, 0.0, 0.6, 0.4])
    dist = SupportDistribution(wv)
    # supports excluding the forced index have probability zero
    assert support_prob(dist, [2, 3]) == 0.0
    # supports containing the zero-weight index have probability zero
    assert support_prob(dist, [0, 1]) == 0.0
    # mass({0,2}) = 0.6*0.6 = 0.36, mass({0,3}) = 0.4*0.4 = 0.16
    assert np.isclose(support_prob(dist, [0, 2]), 0.36 / 0.52, atol=1e-12)
    assert np.isclose(support_prob(dist, [0, 3]), 0.16 / 0.52, atol=1e-12)


def test_sequential_path_reproduces_support_prob():
    rng = np.random.default_rng(8)
    for trial in range(3):
        k = 10
        s = 4
        omega = rng.uniform(0.01, 0.99, size=k)
        wv = normalize_weights(omega, s)
        dist = SupportDistribution(wv)
        supports, _ = enumerated_probs(wv.omega, s)
        for sup in supports[:: max(1, len(supports) // 25)]:
            direct = support_prob(dist, list(sup))
            via_path = np.exp(sequential_path_log_prob(dist, list(sup)))
            assert np.isclose(via_path, direct, rtol=1e-10)


def test_degenerate_indicator_weights():
    wv = WeightVector([1.0, 0.0, 1.0, 0.0])
    dist = SupportDistribution(wv)
    for method in ("exact", "rejection"):
        sup = np.flatnonzero(SAMPLERS[method](dist, 1, seed=1)[0])
        assert list(sup) == [0, 2]


def tv_distance(counts, probs):
    emp = counts / counts.sum()
    return 0.5 * np.abs(emp - probs).sum()


@pytest.mark.parametrize("method", ["exact", "rejection"])
def test_sampler_matches_distribution(method):
    rng = np.random.default_rng(17)
    omega = rng.uniform(0.1, 0.9, size=6)
    wv = normalize_weights(omega, 3)
    dist = SupportDistribution(wv)
    supports, probs = enumerated_probs(wv.omega, 3)
    index_of = {sup: i for i, sup in enumerate(supports)}
    n = 20000
    masks = SAMPLERS[method](dist, n, seed=123)
    assert np.all(masks.sum(axis=1) == 3)
    counts = np.zeros(len(supports))
    for row in masks:
        counts[index_of[tuple(np.flatnonzero(row))]] += 1
    assert tv_distance(counts, probs) <= 0.02


@pytest.mark.parametrize(
    "omega",
    [
        np.r_[1.0, 0.0, np.full(30, 3 / 30)],  # forced, impossible and free indices
        np.r_[np.ones(2), np.zeros(3)],  # nothing left to draw
    ],
)
def test_generator_seeded_draws_continue_one_stream(omega):
    # draws from one generator read its uniforms in order, so 10 then 15
    # supports are the 25 of one call from the same seed
    dist = SupportDistribution(WeightVector(omega))
    rng = np.random.default_rng(8)
    got = np.concatenate([sample_supports(dist, n, seed=rng) for n in (10, 15)])
    assert got.shape == (25, omega.size)
    assert np.array_equal(got, sample_supports(dist, 25, seed=8))


def test_zero_supports_have_zero_rows():
    dist = SupportDistribution(WeightVector(np.r_[1.0, np.full(6, 0.5)]))
    assert sample_supports(dist, 0, seed=1).shape == (0, 7)
    assert sample_supports(dist, 0, seed=np.random.default_rng(1)).shape == (0, 7)


@st.composite
def rejective_weights(draw):
    """Weights with free, forced (1) and impossible (0) entries, r = 1..n_free."""
    n_free = draw(st.integers(1, 40))
    r = draw(st.sampled_from([1, n_free, draw(st.integers(1, n_free))]))
    if r == n_free:
        # every free index is drawn: weights just below one, summing to
        # n_free within the model's tolerance
        free = np.full(n_free, 1.0 - 1e-9)
    else:
        raw = draw(st.lists(st.floats(1e-3, 1.0), min_size=n_free, max_size=n_free))
        free = normalize_weights(raw, r).omega
    omega = np.r_[free, np.ones(draw(st.integers(0, 5))), np.zeros(draw(st.integers(0, 5)))]
    return omega[draw(st.permutations(range(omega.size)))]


def _reference_draws(dist, table, u):
    """Supports of the reference inverse-CDF sampler on the reference table."""
    model = SimpleNamespace(_esp=table, _free=dist._free, _r=dist._r)
    out = np.zeros((len(u), dist.dim), dtype=bool)
    out[:, dist._forced] = True
    return reference_support.inverse_cdf_supports(model, u, out)


def _assert_matches_reference(omega, seed, n):
    dist = SupportDistribution(WeightVector(omega))
    table = reference_support._log_suffix_esp(reference_support.free_log_odds(dist), dist._r)
    assert np.array_equal(dist._esp, table)
    # the sampler's premise: no column increases down the table
    assert np.all(dist._esp[1:] <= dist._esp[:-1])
    u = np.random.default_rng(seed).random((n, dist._r))
    assert np.array_equal(sample_supports(dist, n, seed=seed), _reference_draws(dist, table, u))
    rng = np.random.default_rng(seed)
    got = np.concatenate([sample_supports(dist, 1, seed=rng) for _ in range(3)])
    u = np.random.default_rng(seed).random((3, dist._r))
    assert np.array_equal(got, _reference_draws(dist, table, u))


@given(rejective_weights(), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_esp_table_and_draws_match_reference(omega, seed):
    _assert_matches_reference(omega, seed, n=6)


@pytest.mark.parametrize("seed", range(12))
def test_draws_match_reference_at_scale(seed):
    # a few hundred free indices, a skewed profile and tens of inclusions
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.0, 1.0, size=600) ** 3
    raw[rng.random(600) < 0.1] = 0.0
    omega = normalize_weights(raw, int(rng.integers(1, 60))).omega
    _assert_matches_reference(omega, seed, n=4)


def _support_codes(masks):
    """One integer per support: bit k set when index k is in it."""
    return masks.astype(np.int64) @ (1 << np.arange(masks.shape[1], dtype=np.int64))


@pytest.mark.parametrize(
    "omega",
    [
        # one forced and one impossible index around six free ones, r = 3
        np.r_[0.3, 1.0, 0.7, 0.0, 0.2, 0.5, 0.4, 0.9],
        # two forced, two impossible, r = 2 over four skewed free weights
        np.r_[0.0, 0.05, 1.0, 0.95, 0.0, 0.6, 1.0, 0.4],
    ],
)
def test_inverse_cdf_law_matches_sequential_scheme_and_closed_form(omega):
    dist = SupportDistribution(WeightVector(omega))
    codes, probs = [], []
    for sup in itertools.combinations(range(dist.dim), dist.sparsity):
        p = support_prob(dist, list(sup))
        if p > 0:
            codes.append(sum(1 << k for k in sup))
            probs.append(p)
    assert np.isclose(sum(probs), 1.0, atol=1e-12)
    index_of = {code: i for i, code in enumerate(codes)}
    n = 100_000
    new = sample_supports(dist, n, seed=31)
    old = np.zeros((n, dist.dim), dtype=bool)
    old[:, dist._forced] = True
    u = np.random.default_rng(32).random((n, len(dist._free)))
    reference_support._sequential_supports(dist, u, old)
    freq = {}
    for name, masks in (("inverse_cdf", new), ("sequential", old)):
        counts = np.zeros(len(codes))
        for code, count in zip(*np.unique(_support_codes(masks), return_counts=True)):
            counts[index_of[int(code)]] += count  # a support outside the law raises KeyError
        freq[name] = counts / n
    # noise alone gives a distance of about 0.005 at these atom counts
    assert 0.5 * np.abs(freq["inverse_cdf"] - probs).sum() <= 0.015
    assert 0.5 * np.abs(freq["sequential"] - probs).sum() <= 0.015
    assert 0.5 * np.abs(freq["inverse_cdf"] - freq["sequential"]).sum() <= 0.02


def test_inverse_cdf_edge_uniforms():
    omega = normalize_weights(np.r_[0.3, 0.6, 0.45, 0.5, 0.7, 0.35, 0.55, 0.4], 4).omega
    omega = np.r_[1.0, 0.0, omega]  # a forced and an impossible index first
    dist = SupportDistribution(WeightVector(omega))
    free, r = dist._free, dist._r
    # u = 0 takes the last feasible index in every round: the last r free ones
    got = support_model._inverse_cdf_supports(dist, np.zeros((2, r)))
    assert np.array_equal(np.flatnonzero(got[0]), np.r_[0, free[-r:]])
    assert np.array_equal(got[0], got[1])
    # the largest uniform below 1 takes the current position: the first r free ones
    got = support_model._inverse_cdf_supports(dist, np.full((1, r), np.nextafter(1.0, 0.0)))
    assert np.array_equal(np.flatnonzero(got[0]), np.r_[0, free[:r]])
    # no rows, no draws
    assert support_model._inverse_cdf_supports(dist, np.zeros((0, r))).shape == (0, dist.dim)


def test_all_forced_model_draws_its_forced_indices():
    dist = SupportDistribution(WeightVector([1.0, 0.0, 1.0, 1.0, 0.0]))
    assert dist._r == 0
    got = sample_supports(dist, 3, seed=4)
    assert np.array_equal(got, np.tile([True, False, True, True, False], (3, 1)))
    assert sample_supports(dist, 0, seed=4).shape == (0, 5)


def test_samplers_agree_with_each_other():
    rng = np.random.default_rng(23)
    omega = rng.uniform(0.1, 0.9, size=6)
    wv = normalize_weights(omega, 3)
    dist = SupportDistribution(wv)
    supports, _ = enumerated_probs(wv.omega, 3)
    index_of = {sup: i for i, sup in enumerate(supports)}
    n = 20000
    counts = {}
    for method in ("exact", "rejection"):
        masks = SAMPLERS[method](dist, n, seed=99)
        c = np.zeros(len(supports))
        for row in masks:
            c[index_of[tuple(np.flatnonzero(row))]] += 1
        counts[method] = c / n
    assert 0.5 * np.abs(counts["exact"] - counts["rejection"]).sum() <= 0.03


def test_draw_signal_properties():
    wv = WeightVector([1.0, 1.0, 0.0, 0.0])
    dist = SupportDistribution(wv)
    values = draw_signals(dist, 1, seed=5)[0]
    support = np.flatnonzero(values)
    assert list(support) == [0, 1]
    assert set(np.unique(values[support])).issubset({-1.0, 1.0})
    assert np.all(values[2:] == 0)

    # sign balance and support size on a nondegenerate model
    omega = normalize_weights(np.random.default_rng(3).uniform(0.2, 0.8, 8), 3)
    dist = SupportDistribution(omega)
    sigs = draw_signals(dist, 20000, seed=7)
    assert np.all((sigs != 0).sum(axis=1) == 3)
    occupied = sigs != 0
    means = (sigs.sum(axis=0) / np.maximum(occupied.sum(axis=0), 1))
    assert np.max(np.abs(means)) <= 0.05


def test_estimate_weights_basic():
    wv = estimate_weights([[1.0, 0.0], [1.0, 0.0]], threshold=0.5)
    assert np.allclose(wv.omega, [1.0, 0.0])
    assert wv.sparsity == 1.0
    wv = estimate_weights([[1.0, 0.0], [0.0, 1.0]], threshold=0.5)
    assert np.allclose(wv.omega, [0.5, 0.5])
    with pytest.raises(InvalidWeights):
        estimate_weights(np.zeros((0, 4)), threshold=0.5)
    with pytest.raises(InvalidWeights):
        estimate_weights([[0.1, 0.1]], threshold=0.5)


def test_estimate_weights_relative_mode():
    corpus = np.array([[10.0, 1.0], [2.0, 1.9]])
    wv = estimate_weights(corpus, threshold=0.5, mode="relative")
    # thresholds are 5.0 and 1.0 per vector
    assert np.allclose(wv.omega, [1.0, 0.5])


def test_estimate_weights_recovers_planted_frequencies():
    rng = np.random.default_rng(11)
    k, n = 64, 100
    omega_true = normalize_weights(rng.uniform(0.05, 0.6, k), 8).omega
    dist = SupportDistribution(WeightVector(omega_true))
    masks = sample_supports(dist, n, seed=42)
    corpus = masks * rng.uniform(0.5, 1.0, size=masks.shape)
    wv = estimate_weights(corpus, threshold=0.1)
    # Hoeffding at n=100 plus the small weight-vs-inclusion-probability gap
    assert np.max(np.abs(wv.omega - omega_true)) <= 0.15


def test_normalize_weights_examples():
    wv = normalize_weights([2.0, 2.0, 0.0], 1.0)
    assert np.allclose(wv.omega, [0.5, 0.5, 0.0])
    wv = normalize_weights([0.9, 0.1], 1.5)
    assert np.allclose(wv.omega, [1.0, 0.5], atol=1e-12)
    already = np.array([0.25, 0.5, 0.25])
    wv = normalize_weights(already, 1.0)
    assert np.allclose(wv.omega, already, atol=1e-12)
    with pytest.raises(InvalidWeights):
        normalize_weights([1.0, 0.0], 2.0)


@pytest.mark.parametrize("s_target", [0.0, -2.0, -1e-300, float("nan")])
def test_normalize_weights_rejects_non_positive_target(s_target):
    # a target sum <= 0 would return zero or negative weights
    with pytest.raises(InvalidWeights, match="positive"):
        normalize_weights([0.5, 0.25, 0.25], s_target)


def test_flip_examples():
    assert np.array_equal(flip(np.array([1.0, 2.0, 3.0])), [3.0, 2.0, 1.0])
    v = np.array([1.0, 2.0, 2.0, 1.0])
    assert np.array_equal(flip(v), v)


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=64))
@settings(max_examples=50, deadline=None)
def test_flip_involutive_and_isometric(values):
    v = np.array(values)
    assert np.array_equal(flip(flip(v)), v)
    for p in (1, 2, np.inf):
        assert np.isclose(
            np.linalg.norm(flip(v), ord=p), np.linalg.norm(v, ord=p), rtol=1e-12
        )


@given(
    st.lists(st.floats(0.0, 5.0), min_size=3, max_size=24).filter(
        lambda v: sum(1 for x in v if x > 0) >= 2
    ),
    st.integers(1, 2),
)
@settings(max_examples=60, deadline=None)
def test_normalize_weights_properties(values, s_target):
    wv = normalize_weights(np.array(values), s_target)
    assert np.all(wv.omega >= -1e-12)
    assert np.all(wv.omega <= 1 + 1e-12)
    assert abs(wv.omega.sum() - s_target) <= 1e-9


def test_normalize_weights_subnormal_entry():
    # 5e-324 rescales to zero; it must still take the mass left by the clamp
    wv = normalize_weights(np.array([0.0, 2.0, 5e-324]), 2)
    assert np.array_equal(wv.omega, [0.0, 1.0, 1.0])


def _assert_matches_the_loop(omega, s_target):
    """Water-filling against the clamp-and-redistribute loop: the same
    clamped set, values within 1e-12 * s_target, and the same bits when
    nothing clamps.  An entry that lands exactly on 1 (c * omega = 1) may
    come out one rounding below 1 on either side, so the clamped sets are
    compared away from such ties only."""
    omega = np.asarray(omega, dtype=float)
    want = reference_normalize_weights(omega, s_target).omega
    got = normalize_weights(omega, s_target).omega
    assert np.all(np.abs(got - want) <= 1e-12 * s_target)
    tie = ((want > 1 - 1e-12) & (want < 1)) | ((got > 1 - 1e-12) & (got < 1))
    assert np.array_equal((got == 1)[~tie], (want == 1)[~tie])
    if not np.any(omega / omega.sum() * s_target > 1):
        assert np.array_equal(got, want)


@st.composite
def weights_and_targets(draw):
    omega = draw(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, 1.0, 2.0, 3.0, 5e-324]),  # zeros, ties, a subnormal
                # no subnormal after rescaling: the loop then loses precision
                st.floats(1e-100, 1e6),
            ),
            min_size=1,
            max_size=40,
        ).filter(lambda v: any(x > 0 for x in v))
    )
    positives = sum(1 for x in omega if x > 0)
    s_target = draw(st.one_of(st.integers(1, positives), st.floats(0.01, positives)))
    return omega, s_target


@given(weights_and_targets())
@settings(max_examples=300, deadline=None)
def test_normalize_weights_matches_the_redistribution_loop(case):
    _assert_matches_the_loop(*case)


_K = 2**16


@pytest.mark.parametrize(
    "omega, s_target",
    [
        ([0.0, 2.0, 5e-324], 2),
        ([0.0, 3.0, 3.0, 1.0, 1.0, 0.0, 1.0], 3),
        ([2.0, 2.0, 2.0, 1.0], 3.5),
        (1.0 / np.arange(1, _K + 1), _K // 2),  # cascade: each round of clamps pushes more over 1
        ((1 + 1 / _K) ** (_K - np.arange(_K)), 0.9 * _K),
    ],
    ids=["subnormal", "zeros-and-ties", "all-but-one-clamp", "harmonic-cascade", "geometric-cascade"],
)
def test_normalize_weights_matches_the_loop_on_hard_cases(omega, s_target):
    _assert_matches_the_loop(omega, s_target)


def test_normalize_weights_spreads_subnormal_weights_in_proportion():
    # the loop rescaled 5e-324 and 1e-320 (2024 ulps) to 0 and 1.2e-320 first,
    # so all of the last unit went to the larger one; the exact split is 1 : 2024
    wv = normalize_weights([1.0, 1.0, 1.0, 1.0, 1.0, 5e-324, 1e-320], 6)
    assert np.array_equal(wv.omega[:5], np.ones(5))
    assert np.allclose(wv.omega[5:], [1 / 2025, 2024 / 2025], rtol=1e-12, atol=0)


def test_normalize_weights_survives_a_sum_that_overflows():
    # the sum of 1e308 + 1e308 overflows; it warned, then raised InvalidWeights
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(normalize_weights([1e308, 1e308], 1).omega, [0.5, 0.5])
        wv = normalize_weights([1.7e308, 1e308, 1e300], 2)
    assert wv.omega[0] == 1.0 and abs(wv.omega.sum() - 2) <= 1e-12


def test_distribution_requires_integer_sum():
    with pytest.raises(InvalidWeights):
        SupportDistribution(WeightVector([0.4, 0.3]))


def test_distribution_refuses_an_oversized_table_before_allocating():
    # uniform weights at K = 2^16, S = 2^12: a 65537 x 4097 table, 2.1 GB
    k, s = 1 << 16, 1 << 12
    assert (k + 1) * (s + 1) > MAX_ESP_ENTRIES
    weights = WeightVector(np.full(k, s / k))
    tracemalloc.start()
    try:
        with pytest.raises(InvalidWeights, match="table"):
            SupportDistribution(weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("seed", [-1, np.int64(-5)], ids=["int", "numpy"])
def test_sample_supports_negative_seed_is_a_config_error(seed):
    dist = SupportDistribution(WeightVector(np.full(8, 0.25)))
    with pytest.raises(ConfigError, match="seed"):
        sample_supports(dist, 2, seed=seed)


@pytest.mark.parametrize("seed", [-1, np.int64(-5)], ids=["int", "numpy"])
def test_draw_signals_negative_seed_is_a_config_error(seed):
    dist = SupportDistribution(WeightVector(np.full(8, 0.25)))
    with pytest.raises(ConfigError, match="seed"):
        draw_signals(dist, 2, seed=seed)


@pytest.mark.parametrize("n", [-1, 2.5, True, "2", None])
def test_support_count_must_be_a_non_negative_integer(n):
    dist = SupportDistribution(WeightVector(np.full(6, 0.5)))
    with pytest.raises(ConfigError):
        sample_supports(dist, n, seed=1)
    with pytest.raises(ConfigError):
        draw_signals(dist, n, seed=1)


def test_support_count_accepts_numpy_integers():
    dist = SupportDistribution(WeightVector(np.full(6, 0.5)))
    want = sample_supports(dist, 4, seed=1)
    assert np.array_equal(sample_supports(dist, np.int64(4), seed=1), want)


@pytest.mark.parametrize(
    "omega", [[0.5, np.nan, 0.5], [np.inf, 0.5, 0.5], [0.5, -np.inf, 0.5], [np.nan] * 3]
)
def test_normalize_weights_rejects_non_finite_entries(omega):
    with pytest.raises(InvalidWeights):
        normalize_weights(omega, 1)


def _seeded_calls():
    """Every entry point that takes a seed, each a call of seed only."""
    from avds.density import BlockPartition, baseline_density
    from avds.harness import diagnostics
    from avds.masks import draw_mask
    from avds.transforms import Measurement, OperatorSpec, Sparsity

    spec = OperatorSpec(Measurement.DFT1D, Sparsity.IDENTITY, 16)
    dist = SupportDistribution(normalize_weights(np.full(16, 0.25), 4))
    density = baseline_density("uniform", spec)
    part = BlockPartition.singletons(16)
    return {
        "sample_supports": lambda seed: sample_supports(dist, 2, seed=seed),
        "draw_signals": lambda seed: draw_signals(dist, 2, seed=seed),
        "draw_mask": lambda seed: draw_mask(density, 3, seed=seed),
        "diagnostics": lambda seed: diagnostics(
            spec, part, density, dist.weights, m=8, trials=2, seed=seed
        ),
    }


@pytest.mark.parametrize("call", ["sample_supports", "draw_signals", "draw_mask", "diagnostics"])
@pytest.mark.parametrize(
    "seed",
    [2.5, "3", -1.0, np.float64(2), b"3"],
    ids=["float", "str", "neg-float", "np-float", "bytes"],
)
def test_a_seed_that_is_not_an_integer_is_a_config_error(call, seed):
    with pytest.raises(ConfigError, match="seed"):
        _seeded_calls()[call](seed)


def test_every_accepted_seed_kind_keeps_its_stream():
    dist = SupportDistribution(normalize_weights(np.full(16, 0.25), 4))
    want = sample_supports(dist, 3, seed=3)
    for seed in (np.int64(3), np.uint8(3), np.random.SeedSequence(3), np.random.default_rng(3)):
        assert np.array_equal(sample_supports(dist, 3, seed=seed), want), seed
    assert sample_supports(dist, 3, seed=None).shape == want.shape
