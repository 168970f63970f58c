import dataclasses
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from reference_diagnostics import reference_diagnostics
from reference_harness import reference_phase_transition, smallest_m_reaching, synth_corpus

from avds import harness, support_model
from avds.cli import _diagnose_config, parse_spec
from avds.density import BlockPartition, Density, adapted_isolated, baseline_density
from avds.errors import (
    ConfigError,
    DimensionMismatch,
    InfeasibleBudget,
    InvalidPartition,
    InvalidSpec,
    InvalidWeights,
    UnsupportedSolver,
)
from avds.harness import (
    MAX_TRIALS,
    ExperimentConfig,
    build_density,
    diagnostics,
    phase_transition,
    psnr,
    run_experiment,
    scale_profile_weights,
)
from avds.masks import DISTINCT, IID, Mask, draw_mask
from avds.recon import SolverParams
from avds.support_model import (
    WeightVector,
    estimate_weights,
    normalize_weights,
)
from avds.transforms import Measurement, OperatorSpec, Sparsity, apply


def test_psnr_basics():
    ref = np.ones((4, 4))
    assert psnr(ref, ref) == math.inf
    rec = ref + 1.0
    assert psnr(ref, rec) == pytest.approx(0.0, abs=1e-12)
    noise = np.full((4, 4), np.sqrt(1e-3))
    assert psnr(ref, ref + noise) == pytest.approx(30.0, abs=1e-9)
    with pytest.raises(DimensionMismatch):
        psnr(np.ones(3), np.ones(4))


def test_synth_corpus_properties():
    wv = WeightVector(np.array([1.0, 0, 1.0, 0, 0, 0, 0, 0]))
    corpus = synth_corpus(wv, 20, floor=0.3, seed=1)
    assert corpus.shape == (20, 8)
    assert np.all((corpus[:, [0, 2]] != 0))
    assert np.all(corpus[:, [1, 3, 4, 5, 6, 7]] == 0)
    nz = np.abs(corpus[corpus != 0])
    assert nz.min() >= 0.3

    rng = np.random.default_rng(2)
    omega = normalize_weights(rng.uniform(0.05, 0.5, 256), 16).omega
    wv = WeightVector(omega)
    corpus = synth_corpus(wv, 1000, floor=0.5, seed=3)
    est = estimate_weights(corpus, threshold=0.25)
    assert np.max(np.abs(est.omega - omega)) <= 0.08


def test_scale_profile_weights_structure():
    wv = scale_profile_weights(8, 2, base=0.8, decay=0.25, layout="mra2d")
    w = wv.matrix()
    # approximation block has the base weight, finest details the smallest
    assert np.allclose(w[:2, :2], 0.8)
    assert np.allclose(w[4:, 4:], 0.8 * 0.25**2)
    assert np.allclose(w[:2, 2:4], 0.8 * 0.25)
    wv2 = scale_profile_weights(8, 2, base=0.8, decay=0.25, s_target=5)
    assert wv2.sparsity == pytest.approx(5.0)


@pytest.mark.parametrize("levels", [5, -1])
def test_scale_profile_weights_rejects_levels_beyond_the_side(levels):
    with pytest.raises(ConfigError):
        scale_profile_weights(16, levels, base=0.8, decay=0.25)


def loop_fineness(side, levels):
    """Per-axis fineness by the explicit loop over dyadic detail segments."""
    lo = side >> levels
    f1 = np.zeros(side, dtype=int)
    seg = lo
    while seg < side:
        f1[seg : 2 * seg] = int(np.log2(seg // lo)) + 1  # 1 = coarsest details
        seg *= 2
    return f1


@pytest.mark.parametrize("side", range(2, 65))
def test_scale_profile_fineness_matches_the_dyadic_loop(side):
    for levels in range(int(np.log2(side)) + 1):
        f1 = loop_fineness(side, levels)
        assert f1[0] == 0
        if side & (side - 1) == 0:
            assert f1[-1] == levels
        for layout, f2 in (
            ("mra2d", np.maximum(f1[:, None], f1[None, :])),
            ("tensor2d", f1[:, None] + f1[None, :]),
        ):
            want = np.clip(0.9 * 0.3 ** f2.astype(float), 0.0, 1.0).T.ravel()
            got = scale_profile_weights(side, levels, base=0.9, decay=0.3, layout=layout)
            assert np.array_equal(got.omega, want), (side, levels, layout)


def small_config(**kw):
    spec = OperatorSpec(Measurement.DFT1D, Sparsity.IDENTITY, 64)
    wv = normalize_weights(np.random.default_rng(0).uniform(0.02, 0.2, 64), 4)
    defaults = dict(
        spec=spec,
        weights=wv,
        density_kinds=["adapted", "uniform"],
        trials=3,
        master_seed=77,
        fraction=0.5,
        solver=SolverParams(continuation_steps=4, max_inner=600),
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_run_experiment_reproducible():
    cfg = small_config()
    r1 = run_experiment(cfg)
    r2 = run_experiment(cfg)
    assert r1.to_json(include_timing=False) == r2.to_json(include_timing=False)
    assert set(r1.psnr_db) == {"adapted", "uniform"}
    assert all(len(v) == 3 for v in r1.psnr_db.values())


def test_repeated_density_kinds_are_a_config_error():
    with pytest.raises(ConfigError, match="repeat"):
        small_config(density_kinds=["uniform", "uniform"])


@pytest.mark.parametrize(
    "setting",
    [
        {"fraction": True},
        {"fraction": "half"},
        {"density_kinds": []},
        {"density_kinds": "uniform"},
        {"density_kinds": ["bogus"]},
        {"flip_coefficients": "yes"},
    ],
    ids=["fraction-bool", "fraction-str", "kinds-empty", "kinds-str", "kinds-unknown", "flip-str"],
)
def test_run_settings_are_checked_when_the_config_is_built(setting):
    # the checks the CLI loader relied on hold for library callers too: before,
    # fraction=True ran at full sampling, an empty kind list returned an empty
    # report and a string kind list failed in setup on the kind 'u'
    with pytest.raises(ConfigError):
        small_config(**setting)


@pytest.mark.parametrize("fraction", [math.nan, math.inf, -3, 7, 0], ids=str)
def test_a_fraction_given_with_a_budget_is_checked(fraction):
    # before, the budget ran and describe() recorded the fraction as given
    with pytest.raises(ConfigError, match="fraction"):
        small_config(budget=4, fraction=fraction)


def test_a_tuple_of_kinds_loads_and_singletons_build_the_isolated_density():
    cfg = small_config(density_kinds=("adapted", "polynomial"), budget=4, fraction=None)
    assert cfg.density_kinds == ("adapted", "polynomial")
    assert cfg.partition.m == cfg.spec.dim
    got = build_density("adapted", cfg, cfg.weights)
    assert np.array_equal(got.pi, adapted_isolated(cfg.spec, cfg.weights).pi)


def test_numpy_integer_solver_counts_serialise_in_the_report():
    # they passed the solver's checks but ended the report in json's TypeError
    cfg = small_config(solver=SolverParams(continuation_steps=np.int64(2), max_inner=np.int64(5)))
    assert json.loads(json.dumps(cfg.describe()))["solver"]["max_inner"] == 5


@pytest.mark.parametrize("trials", [0, MAX_TRIALS + 1, 10**12])
def test_trial_counts_outside_the_bound_are_config_errors(trials):
    # 10^12 trials would allocate 8 TB of Lambda samples, or a list of
    # 10^12 seed sequences, before the first trial ran
    with pytest.raises(ConfigError, match="trials"):
        small_config(trials=trials)
    k = 16
    spec = OperatorSpec(Measurement.DFT1D, Sparsity.IDENTITY, k)
    wv = normalize_weights(np.full(k, 0.25), 4)
    dens = baseline_density("uniform", spec)
    with pytest.raises(ConfigError, match="trials"):
        diagnostics(spec, BlockPartition.singletons(k), dens, wv, m=8, trials=trials, seed=0)


def test_run_experiment_full_sampling_inf():
    cfg = small_config(fraction=1.0, trials=1)
    report = run_experiment(cfg)
    for kind in ("adapted", "uniform"):
        assert report.psnr_db[kind][0] == math.inf


def test_run_experiment_block_partition_covered_fraction():
    spec = OperatorSpec(Measurement.DFT2D, Sparsity.TENSOR_HAAR, 8, levels=2)
    wv = scale_profile_weights(8, 2, base=0.9, decay=0.3, layout="tensor2d", s_target=6)
    cfg = ExperimentConfig(
        spec=spec,
        weights=wv,
        density_kinds=["adapted", "uniform"],
        trials=2,
        master_seed=5,
        partition=BlockPartition.vertical_lines(8),
        fraction=0.5,
        solver=SolverParams(continuation_steps=4, max_inner=500),
    )
    report = run_experiment(cfg)
    for kind in ("adapted", "uniform"):
        assert report.covered_fraction[kind] == pytest.approx(0.5)


def test_describe_names_the_square_side():
    # squares:2 and squares:4 at one budget are told apart, in the form
    # `--partition` takes; the other partitions keep their names
    spec = OperatorSpec(Measurement.DFT2D, Sparsity.IDENTITY, 8)
    wv = normalize_weights(np.full(64, 4 / 64), 4)
    partitions = [
        BlockPartition.squares(8, 2),
        BlockPartition.squares(8, 4),
        BlockPartition.vertical_lines(8),
        BlockPartition.horizontal_lines(8),
        BlockPartition.singletons(64),
    ]
    described = [
        ExperimentConfig(
            spec, wv, ["uniform"], trials=1, master_seed=0, partition=part, budget=2
        ).describe()["partition"]
        for part in partitions
    ]
    assert described == [
        "squares:2", "squares:4", "vertical_lines", "horizontal_lines", "singletons"
    ]


def test_diagnostics_identity_hand_values():
    # A0 = I, singleton blocks, pi uniform on J, I subset of J:
    # Lambda_I = |J| / m and mu = |J| / m
    k = 16
    spec = OperatorSpec(Measurement.IDENTITY, Sparsity.IDENTITY, k)
    part = BlockPartition.singletons(k)
    omega = np.zeros(k)
    omega[:8] = 0.5  # S = 4, J = first 8
    wv = WeightVector(omega)
    dens = adapted_isolated(spec, wv)
    m = 10
    diag = diagnostics(spec, part, dens, wv, m=m, trials=8, seed=0)
    assert diag.mu == pytest.approx(8 / m)
    assert np.allclose(diag.lambda_samples, 8 / m)


def test_diagnostics_dft_mu():
    k = 32
    spec = OperatorSpec(Measurement.DFT1D, Sparsity.IDENTITY, k)
    part = BlockPartition.singletons(k)
    wv = normalize_weights(np.full(k, 0.125), 4)
    dens = baseline_density("uniform", spec, part)
    m = 12
    diag = diagnostics(spec, part, dens, wv, m=m, trials=5, seed=1)
    assert diag.mu == pytest.approx(1.0 / m, rel=1e-10)
    assert diag.threshold_inf1 == pytest.approx(1.0, rel=1e-10)


@pytest.mark.parametrize("seed", [-1, np.int64(-5)], ids=["int", "numpy"])
def test_diagnostics_negative_seed_is_a_config_error(seed):
    k = 16
    spec = OperatorSpec(Measurement.DFT1D, Sparsity.IDENTITY, k)
    wv = normalize_weights(np.full(k, 0.25), 4)
    dens = baseline_density("uniform", spec)
    with pytest.raises(ConfigError, match="seed"):
        diagnostics(spec, BlockPartition.singletons(k), dens, wv, m=8, trials=2, seed=seed)


@pytest.mark.parametrize("partition", ["singletons", "lines"])
def test_diagnostics_reject_a_density_of_the_wrong_length(partition):
    spec = OperatorSpec(Measurement.HADAMARD2D, Sparsity.HAAR2D, 32, levels=2)
    part = (
        BlockPartition.singletons(1024)
        if partition == "singletons"
        else BlockPartition.vertical_lines(32)
    )
    wv = normalize_weights(np.full(1024, 16 / 1024), 16)
    dens = Density(np.full(10, 0.1), 10.0)
    with pytest.raises(DimensionMismatch, match="density has 10 entries"):
        diagnostics(spec, part, dens, wv, m=8, trials=2, seed=0)


@pytest.mark.parametrize("m", [32, 256])
def test_diagnostics_memory_does_not_grow_with_trials(m):
    # trials run in stacks of 64 and chunks sized by m x S = 1024 or 8192
    # (both above K = 256), so the traced peak stays flat in `trials`
    spec = OperatorSpec(Measurement.HADAMARD2D, Sparsity.HAAR2D, 16, levels=2)
    part = BlockPartition.singletons(256)
    wv = normalize_weights(np.full(256, 32 / 256), 32)
    dens = baseline_density("uniform", spec, part)
    diagnostics(spec, part, dens, wv, m=m, trials=2, seed=0)  # caches, outside the trace
    peaks = []
    for trials in (200, 2000):
        tracemalloc.start()
        diagnostics(spec, part, dens, wv, m=m, trials=trials, seed=0)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] <= 2 * peaks[0], peaks


def test_diagnostics_tail_decreases_with_m():
    k = 64
    spec = OperatorSpec(Measurement.DFT1D, Sparsity.IDENTITY, k)
    part = BlockPartition.singletons(k)
    wv = normalize_weights(np.full(k, 4 / k), 4)
    dens = adapted_isolated(spec, wv)
    tails = [
        diagnostics(spec, part, dens, wv, m=m, trials=60, seed=3).gram_tail_prob
        for m in (8, 16, 64)
    ]
    assert tails[0] >= tails[1] >= tails[2]


@pytest.mark.parametrize(
    "spec,part,omega,kind",
    [
        # the diagnose config's operator and weights
        (
            OperatorSpec(Measurement.HADAMARD2D, Sparsity.HAAR2D, 32, levels=2),
            BlockPartition.singletons(1024),
            np.full(1024, 16 / 1024),
            "uniform",
        ),
        # forced (omega = 1) and impossible (omega = 0) coefficients
        (
            OperatorSpec(Measurement.DFT1D, Sparsity.DB4_1D, 64, levels=3),
            BlockPartition.singletons(64),
            np.r_[np.ones(2), np.zeros(6), np.full(56, 4 / 56)],
            "uniform",
        ),
        # every coefficient forced: no free index is drawn
        (
            OperatorSpec(Measurement.IDENTITY, Sparsity.IDENTITY, 8),
            BlockPartition.singletons(8),
            np.r_[np.ones(3), np.zeros(5)],
            "uniform",
        ),
        (
            OperatorSpec(Measurement.DFT2D, Sparsity.TENSOR_HAAR, 8, levels=2),
            BlockPartition.vertical_lines(8),
            np.full(64, 6 / 64),
            "uniform",
        ),
        # real columns, line and square blocks
        (
            OperatorSpec(Measurement.HADAMARD2D, Sparsity.HAAR2D, 16, levels=2),
            BlockPartition.horizontal_lines(16),
            np.full(256, 8 / 256),
            "uniform",
        ),
        (
            OperatorSpec(Measurement.HADAMARD2D, Sparsity.DB4_2D, 16, levels=2),
            BlockPartition.squares(16, 4),
            np.full(256, 8 / 256),
            "uniform",
        ),
        # blocks of unequal size
        (
            OperatorSpec(Measurement.DFT2D, Sparsity.TENSOR_HAAR, 16, levels=2),
            BlockPartition(
                [np.arange(32)] + [np.arange(16 * k, 16 * k + 16) for k in range(2, 16)],
                kind="vertical_lines",
            ),
            np.full(256, 8 / 256),
            "uniform",
        ),
        # rows of zero probability: Lambda's maximum skips them
        (
            OperatorSpec(Measurement.IDENTITY, Sparsity.IDENTITY, 64),
            BlockPartition.singletons(64),
            np.r_[np.ones(2), np.zeros(6), np.full(56, 4 / 56)],
            "adapted",
        ),
        # S = 64: 16 tail Grams of 64 x 64 fill a stack, so 30 trials take two
        (
            OperatorSpec(Measurement.HADAMARD2D, Sparsity.HAAR2D, 16, levels=2),
            BlockPartition.singletons(256),
            np.full(256, 64 / 256),
            "uniform",
        ),
        # blocks of 4 rows, shorter than the support (S = 8)
        (
            OperatorSpec(Measurement.HADAMARD2D, Sparsity.HAAR2D, 16, levels=2),
            BlockPartition.squares(16, 2),
            np.full(256, 8 / 256),
            "uniform",
        ),
    ],
    ids=[
        "hadamard-haar",
        "forced",
        "all-forced",
        "lines",
        "real-lines",
        "squares",
        "unequal",
        "zero-rows",
        "two-stacks",
        "short-squares",
    ],
)
def test_diagnostics_match_per_trial_reference(spec, part, omega, kind):
    wv = WeightVector(omega)
    if kind == "adapted":
        dens = adapted_isolated(spec, wv)
    else:
        dens = baseline_density(kind, spec, part)
    for m in (part.m // 8, part.m // 2):
        got = diagnostics(spec, part, dens, wv, m=m, trials=30, seed=17)
        want = reference_diagnostics(spec, part, dens, wv, m=m, trials=30, seed=17)
        np.testing.assert_allclose(got.lambda_samples, want.lambda_samples, rtol=1e-13, atol=0)
        for key in ("mu", "gram_tail_prob", "threshold_inf1", "threshold_gram"):
            assert getattr(got, key) == getattr(want, key), key


_DIAGNOSE_CONFIGS = {
    # committed diagnose configs by the name of their partition
    "diagnose": "diagnose_hadamard_haar",
    "lines": "diagnose_dft2d_lines",
    "squares": "diagnose_hadamard_squares",
}


def _diagnose_run(name):
    """(config, budgets) of a committed diagnose config, read as `avds diagnose` reads it."""
    path = Path(__file__).resolve().parents[1] / "configs" / f"{_DIAGNOSE_CONFIGS[name]}.json"
    cfg, budgets, _ = _diagnose_config(str(path))
    return cfg, budgets


def test_diagnose_config_matches_per_trial_reference():
    cfg, budgets = _diagnose_run("diagnose")
    dens = build_density(cfg.density_kinds[0], cfg, cfg.weights)
    args = (cfg.spec, cfg.partition, dens, cfg.weights)
    assert (budgets, cfg.trials, cfg.master_seed) == ([32, 64, 128, 256], 200, 17)
    for m in budgets:
        got = diagnostics(*args, m=m, trials=cfg.trials, seed=cfg.master_seed)
        want = reference_diagnostics(*args, m=m, trials=cfg.trials, seed=cfg.master_seed)
        np.testing.assert_allclose(got.lambda_samples, want.lambda_samples, rtol=1e-13, atol=0)
        for key in ("mu", "gram_tail_prob", "threshold_inf1", "threshold_gram"):
            assert getattr(got, key) == getattr(want, key), key


def _rows_one_call_per_budget(cfg, budgets, epsilon):
    """The rows of a diagnose run, one `diagnostics` call per budget."""
    dens = build_density(cfg.density_kinds[0], cfg, cfg.weights)
    rows = []
    for m in budgets:
        diag = diagnostics(
            cfg.spec, cfg.partition, dens, cfg.weights,
            m=m, trials=cfg.trials, seed=cfg.master_seed, epsilon=epsilon,
        )
        row = dataclasses.asdict(diag)
        lam = row.pop("lambda_samples")
        rows.append(dict(row, lambda_mean=float(np.mean(lam)), lambda_max=float(np.max(lam))))
    return rows


@pytest.mark.parametrize("config", ["diagnose", "squares"])
def test_a_diagnose_run_gives_the_rows_of_one_call_per_budget(config):
    cfg, budgets = _diagnose_run(config)
    assert cfg.partition.kind == ("singletons" if config == "diagnose" else "squares:4")
    got = harness.diagnose_rows(cfg, budgets, 0.05)
    want = _rows_one_call_per_budget(cfg, budgets, 0.05)
    assert [sorted(row) for row in got] == [sorted(row) for row in want]
    for got_row, want_row in zip(got, want):
        for key, value in want_row.items():
            assert got_row[key] == value, key


# the lines config's operator with one block of two lines: the rows of the
# others are padded in the block table
_UNEQUAL_LINES = BlockPartition(
    [np.arange(32)] + [np.arange(16 * k, 16 * k + 16) for k in range(2, 16)], kind="unequal"
)


@pytest.mark.parametrize(
    "config,m",
    [
        ("diagnose", 32), ("diagnose", 256), ("lines", 4), ("lines", 8),
        ("squares", 4), ("squares", 12), ("unequal", 4), ("unequal", 8),
    ],
)
def test_diagnostics_stack_size_changes_no_value(monkeypatch, config, m):
    cfg, _ = _diagnose_run("lines" if config == "unequal" else config)
    if config == "unequal":
        cfg = dataclasses.replace(cfg, partition=_UNEQUAL_LINES)
    dens = build_density(cfg.density_kinds[0], cfg, cfg.weights)
    runs = []
    # one trial per stack and chunk, a few trials per chunk, one stack for all
    for entries in (1 << 8, 1 << 11, 1 << 20):
        monkeypatch.setattr(harness, "_STACK_ENTRIES", entries)
        runs.append(
            diagnostics(
                cfg.spec, cfg.partition, dens, cfg.weights,
                m=m, trials=cfg.trials, seed=cfg.master_seed,
            )
        )
    for run in runs[1:]:
        assert np.array_equal(run.lambda_samples, runs[0].lambda_samples)
        assert run.gram_tail_prob == runs[0].gram_tail_prob


def test_diagnostics_screen_the_gram_tail_once_per_stack(monkeypatch):
    # the square-block diagnose config: one stacked eigvalsh for the block
    # Lambda numerators per chunk, and one tail screen per stack of trials
    # (a single stack of 40 here, split into 4 chunks), where it screened
    # each chunk's Grams in a call of its own
    cfg, budgets = _diagnose_run("squares")
    dens = build_density(cfg.density_kinds[0], cfg, cfg.weights)
    terms = harness.block_norm_terms(cfg.spec, cfg.partition, cfg.weights)
    monkeypatch.setattr(harness, "block_norm_terms", lambda *args: terms)
    calls, stacks = [], []
    eigvalsh, tail_hits = np.linalg.eigvalsh, harness._tail_hits
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.ndim) or eigvalsh(a))
    monkeypatch.setattr(harness, "_tail_hits", lambda g: stacks.append(len(g)) or tail_hits(g))
    for m in budgets:
        diagnostics(
            cfg.spec, cfg.partition, dens, cfg.weights, m=m, trials=cfg.trials, seed=cfg.master_seed
        )
    assert stacks == [cfg.trials] * len(budgets) == [40] * 3
    # the tail's Grams are (trials, S, S), the block numerators' (trials, blocks, b, b)
    assert calls.count(3) <= len(stacks) and calls.count(4) <= 3 * 4, calls


def _counting_builds(monkeypatch):
    """Count the support models the harness builds, through the name it looks up."""
    builds = []

    def build(weights):
        builds.append(weights)
        return support_model.SupportDistribution(weights)

    monkeypatch.setattr(harness, "SupportDistribution", build)
    harness.signal_distribution.cache_clear()
    return builds


def test_signal_distribution_is_built_once_per_weight_content(monkeypatch):
    builds = _counting_builds(monkeypatch)
    omega = normalize_weights(np.random.default_rng(4).uniform(0.05, 0.5, 64), 4).omega
    first = harness.signal_distribution(WeightVector(omega.copy()))
    # a distinct vector with equal omega shares the model
    assert harness.signal_distribution(WeightVector(omega.copy())) is first
    assert len(builds) == 1
    swapped = omega.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    second = harness.signal_distribution(WeightVector(swapped))
    assert second is not first and len(builds) == 2
    assert np.array_equal(second.weights.omega, normalize_weights(swapped, 4).omega)
    # another sum is another model
    third = harness.signal_distribution(WeightVector(swapped * 1.25))
    assert third.sparsity == 5 and len(builds) == 3


def test_signal_distribution_arrays_refuse_writes():
    harness.signal_distribution.cache_clear()
    free = normalize_weights(np.random.default_rng(5).uniform(0.1, 0.9, 30), 3).omega
    omega = np.r_[1.0, 0.0, free]
    dist = harness.signal_distribution(WeightVector(omega))
    for array in (dist.weights.omega, dist._forced, dist._free, dist._esp):
        assert len(array)
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_memo_cold_and_warm_give_equal_outputs(monkeypatch):
    builds = _counting_builds(monkeypatch)
    cfg = small_config()
    cold = run_experiment(cfg).to_json(include_timing=False)
    warm = run_experiment(cfg).to_json(include_timing=False)
    assert cold == warm and len(builds) == 1

    spec = OperatorSpec(Measurement.HADAMARD2D, Sparsity.HAAR2D, 8, levels=2)
    part = BlockPartition.singletons(spec.dim)
    wv = normalize_weights(np.random.default_rng(6).uniform(0.05, 0.6, spec.dim), 4)
    dens = adapted_isolated(spec, wv)
    runs = []
    for _ in range(2):
        harness.signal_distribution.cache_clear()
        cold = diagnostics(spec, part, dens, wv, m=16, trials=20, seed=3)
        warm = diagnostics(spec, part, dens, wv, m=16, trials=20, seed=3)
        runs += [cold, warm]
    assert len(builds) == 3
    for run in runs[1:]:
        assert np.array_equal(run.lambda_samples, runs[0].lambda_samples)
        assert (run.mu, run.gram_tail_prob) == (runs[0].mu, runs[0].gram_tail_prob)


def test_phase_transition_endpoints():
    spec = OperatorSpec(Measurement.DFT1D, Sparsity.IDENTITY, 32)
    wv = normalize_weights(np.full(32, 3 / 32), 3)
    cfg = ExperimentConfig(
        spec=spec,
        weights=wv,
        density_kinds=["adapted"],
        trials=6,
        master_seed=11,
        budget=1,
        solver=SolverParams(continuation_steps=4, max_inner=400),
    )
    table = phase_transition(cfg, m_grid=[2, 32])
    points = table["adapted"]
    # m = S - 1 = 2: no exact recovery; m = K: always
    assert points[0].success_rate == 0.0
    assert points[1].success_rate == 1.0
    assert smallest_m_reaching(points, 0.95) == 32


def test_phase_transition_pruning():
    spec = OperatorSpec(Measurement.DFT1D, Sparsity.IDENTITY, 32)
    wv = normalize_weights(np.full(32, 3 / 32), 3)
    cfg = ExperimentConfig(
        spec=spec,
        weights=wv,
        density_kinds=["uniform"],
        trials=10,
        master_seed=2,
        budget=1,
        solver=SolverParams(continuation_steps=3, max_inner=300),
    )
    table = phase_transition(cfg, m_grid=[2], prune_target=0.95)
    point = table["uniform"][0]
    assert point.pruned
    assert point.trials_run < 10


def _k32_config(kinds, trials, weights=None, measurement=Measurement.DFT1D):
    return ExperimentConfig(
        spec=OperatorSpec(measurement, Sparsity.IDENTITY, 32),
        weights=normalize_weights(np.full(32, 3 / 32), 3) if weights is None else weights,
        density_kinds=kinds,
        trials=trials,
        master_seed=7,
        budget=1,
    )


@pytest.mark.parametrize(
    "cfg, budgets, prune_target",
    [
        (_k32_config(["adapted", "uniform", "coherence"], 4), [2, 6, 12, 32], None),
        (_k32_config(["uniform", "adapted"], 10), [2, 6, 12, 32], 0.95),
        # 16 atoms of positive adapted mass: m = 20 is scored without a trial
        (
            _k32_config(
                ["adapted", "uniform"],
                6,
                WeightVector(np.r_[np.full(16, 3 / 16), np.zeros(16)]),
                Measurement.IDENTITY,
            ),
            [4, 16, 20],
            0.5,
        ),
    ],
    ids=["dft1d", "dft1d-pruned", "identity-unsupported"],
)
def test_phase_transition_matches_the_per_kind_reference(cfg, budgets, prune_target):
    expected = reference_phase_transition(cfg, budgets, prune_target=prune_target)
    # a one-pass grid serves every kind
    table = phase_transition(cfg, iter(budgets), prune_target=prune_target)
    assert table == expected


@pytest.mark.parametrize(
    "kwargs, error",
    [
        ({"prune_target": 1.5}, ConfigError),
        ({"prune_target": -0.1}, ConfigError),
        ({"prune_target": math.nan}, ConfigError),
        ({"prune_target": "0.5"}, ConfigError),
        ({"prune_target": 1j}, ConfigError),
        ({"prune_target": True}, ConfigError),
        ({"m_grid": [8, 12.9]}, InfeasibleBudget),
        ({"m_grid": [8.0]}, InfeasibleBudget),
        ({"m_grid": [0]}, InfeasibleBudget),
        ({"m_grid": [np.int64(-4)]}, InfeasibleBudget),
        ({"m_grid": [True]}, InfeasibleBudget),
    ],
    ids=[
        "prune-above-1", "prune-below-0", "prune-nan", "prune-string", "prune-complex",
        "prune-bool",
        "m-fractional", "m-float", "m-zero", "m-negative", "m-bool",
    ],
)
def test_phase_transition_rejects_bad_inputs_before_any_solve(monkeypatch, kwargs, error):
    def no_solve(*args, **kwargs):
        pytest.fail("phase_transition solved before checking its inputs")

    monkeypatch.setattr(harness, "solve_bp", no_solve)
    with pytest.raises(error):
        phase_transition(_k32_config(["uniform"], 2), **{"m_grid": [8], **kwargs})


def _handmade_trials(records):
    """A stand-in for `harness._trials` that yields `records` of the kinds
    asked for, and logs each (kinds, budget) call."""
    calls = []

    def trials(cfg, dist, densities, budget):
        calls.append((tuple(densities), budget))
        return (r for r in records if r.kind in densities)

    return trials, calls


def test_experiments_and_transitions_only_reduce_the_trial_records(monkeypatch):
    record = harness._Trial
    trials, calls = _handmade_trials(
        [
            record("adapted", 0.25, math.inf, True, True),
            record("uniform", 0.5, 20.0, False, False),
            record("adapted", 0.75, 30.0, False, True),
            record("uniform", 0.5, 10.0, False, False),
        ]
    )
    monkeypatch.setattr(harness, "_trials", trials)
    report = run_experiment(_k32_config(["adapted", "uniform"], 2))
    assert calls == [(("adapted", "uniform"), 1)]
    assert report.psnr_db == {"adapted": [math.inf, 30.0], "uniform": [20.0, 10.0]}
    # +inf is clipped at the cap before the mean and the deviation
    assert report.psnr_mean == {"adapted": (harness.PSNR_CAP_DB + 30.0) / 2, "uniform": 15.0}
    assert report.psnr_sd == {"adapted": (harness.PSNR_CAP_DB - 30.0) / 2, "uniform": 5.0}
    assert report.covered_fraction == {"adapted": 0.5, "uniform": 0.5}
    assert report.unconverged_solves == 2

    # at 10 trials and a target of 0.8, two failures still reach 8 / 10 = 0.8
    # and the third makes it unreachable
    outcomes = [True, False, True, False, True, False, True, True, True, True]
    trials, calls = _handmade_trials(
        [record("uniform", 0.25, 0.0, ok, True) for ok in outcomes]
        + [record("adapted", 0.25, math.inf, True, True)] * 10
    )
    monkeypatch.setattr(harness, "_trials", trials)
    weights = WeightVector(np.r_[np.full(16, 3 / 16), np.zeros(16)])
    cfg = _k32_config(["uniform", "adapted"], 10, weights, Measurement.IDENTITY)
    table = phase_transition(cfg, [8, 20], prune_target=0.8)
    assert table["uniform"] == [
        harness.PhasePoint(8, 3 / 6, 6, pruned=True),
        harness.PhasePoint(20, 3 / 6, 6, pruned=True),
    ]
    # 16 atoms of positive adapted mass: m = 20 runs no trial
    assert table["adapted"] == [
        harness.PhasePoint(8, 1.0, 10, pruned=False),
        harness.PhasePoint(20, 0.0, 0, pruned=True),
    ]
    assert calls == [(("uniform",), 8), (("uniform",), 20), (("adapted",), 8)]


def test_run_experiment_scores_every_kind_on_each_trials_signal(monkeypatch):
    drawn, measured = [], []
    harness_draw, harness_measure = harness.draw_signals, harness.measure

    def draw_signals(*args, **kwargs):
        drawn.append(harness_draw(*args, **kwargs))
        return drawn[-1]

    def measure(x, op):
        measured.append(x)
        return harness_measure(x, op)

    monkeypatch.setattr(harness, "draw_signals", draw_signals)
    monkeypatch.setattr(harness, "measure", measure)
    cfg = _k32_config(["adapted", "uniform", "coherence"], 4)
    cfg.budget = 12
    run_experiment(cfg)
    assert [len(signals) for signals in drawn] == [1, 1, 1, 1]
    assert len(measured) == 12
    for trial, signals in enumerate(drawn):
        assert all(np.shares_memory(x, signals) for x in measured[3 * trial : 3 * trial + 3])


def _equal_densities_config(kinds):
    # levels=1 with uniform weights: the adapted and coherence densities are
    # the same array, so paired kinds must give the same results
    return ExperimentConfig(
        spec=OperatorSpec(Measurement.HADAMARD2D, Sparsity.HAAR2D, 32, levels=1),
        weights=WeightVector(np.full(1024, 16 / 1024)),
        density_kinds=kinds,
        trials=3,
        master_seed=0,
        budget=128,
    )


def test_equal_densities_give_equal_experiments_and_transitions():
    cfg = _equal_densities_config(["adapted", "coherence"])
    densities, _ = harness._setup(cfg)
    assert np.array_equal(densities["adapted"].pi, densities["coherence"].pi)
    report = run_experiment(cfg)
    assert report.psnr_db["adapted"] == report.psnr_db["coherence"]
    table = phase_transition(cfg, [64, 128])
    assert table["adapted"] == table["coherence"]


@pytest.mark.parametrize(
    "cfg, budgets",
    [
        (_k32_config(["adapted", "uniform", "coherence"], 6), [4, 8, 12]),
        (_equal_densities_config(["adapted", "uniform"]), [128]),
    ],
    ids=["dft1d", "hadamard-haar"],
)
def test_a_transition_point_runs_the_experiments_trials(cfg, budgets):
    # +-1 signals with S nonzeros: relative error <= 1e-3 is a PSNR of at
    # least 60 + 10 log10(K / S) dB
    s = round(cfg.weights.sparsity)
    floor_db = 60 + 10 * math.log10(cfg.spec.dim / s)
    table = phase_transition(cfg, budgets)
    for i, m in enumerate(budgets):
        report = run_experiment(dataclasses.replace(cfg, budget=m))
        for kind, scores in report.psnr_db.items():
            rate = np.mean(np.asarray(scores) >= floor_db)
            assert table[kind][i].success_rate == rate, (kind, m)


def _count_calls():
    k = 16
    spec = OperatorSpec(Measurement.DFT1D, Sparsity.IDENTITY, k)
    dens = baseline_density("uniform", spec)
    wv = normalize_weights(np.full(k, 0.25), 4)
    part = BlockPartition.singletons(k)
    return {
        "mask-distinct": lambda n: draw_mask(dens, n, mode=DISTINCT, seed=0),
        "mask-iid": lambda n: draw_mask(dens, n, mode=IID, seed=0),
        "diagnostics-m": lambda n: diagnostics(spec, part, dens, wv, m=n, trials=2, seed=0),
        "diagnostics-trials": lambda n: diagnostics(spec, part, dens, wv, m=4, trials=n),
        "config-budget": lambda n: small_config(budget=n),
        "config-trials": lambda n: small_config(trials=n),
        "config-seed": lambda n: small_config(master_seed=n),
    }


def _small_diagnostics(**kw):
    """`diagnostics` at m = 4 on K = 16, uniform weights and density; `kw` overrides."""
    spec = OperatorSpec(Measurement.DFT1D, Sparsity.IDENTITY, 16)
    args = dict(
        spec=spec, partition=BlockPartition.singletons(16),
        density=baseline_density("uniform", spec), weights=normalize_weights(np.full(16, 0.25), 4),
        m=4, trials=2, seed=0,
    )
    return diagnostics(**dict(args, **kw))


@pytest.mark.parametrize("value", [2.5, np.float64(3), "3", True], ids=repr)
@pytest.mark.parametrize(
    "call, error",
    [
        ("mask-distinct", InfeasibleBudget),
        ("mask-iid", InfeasibleBudget),
        ("diagnostics-m", InfeasibleBudget),
        ("diagnostics-trials", ConfigError),
        ("config-budget", InfeasibleBudget),
        ("config-trials", ConfigError),
        ("config-seed", ConfigError),
    ],
)
def test_counts_that_are_not_integers_are_rejected(call, error, value):
    # a budget is an InfeasibleBudget, as in phase_transition, and a trial
    # count or a master seed a ConfigError; numpy integers pass
    run = _count_calls()[call]
    with pytest.raises(error):
        run(value)
    run(np.int64(3))


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: OperatorSpec(Measurement.DFT2D, Sparsity.HAAR2D, 16, levels=2.5), InvalidSpec),
        (lambda: OperatorSpec(Measurement.DFT2D, Sparsity.HAAR2D, 16, levels=True), InvalidSpec),
        (lambda: OperatorSpec(Measurement.DFT2D, Sparsity.HAAR2D, 16.0), InvalidSpec),
        (lambda: BlockPartition.squares(16, 2.0), InvalidPartition),
        (lambda: BlockPartition.squares(16, True), InvalidPartition),
        (lambda: SolverParams(max_inner=2.5), UnsupportedSolver),
        (lambda: SolverParams(continuation_steps=2.5), UnsupportedSolver),
        (lambda: SolverParams(max_inner=True), UnsupportedSolver),
        (lambda: SolverParams(final_mu_factor=True), UnsupportedSolver),
        (lambda: draw_mask(Density(np.full(8, 1 / 8), 8.0), 3, seed=True), ConfigError),
        (lambda: parse_spec("dft2d:haar2d:16:2.5"), ConfigError),
    ],
    ids=[
        "levels-float", "levels-bool", "size-float", "square-side-float", "square-side-bool",
        "max-inner-float", "continuation-float", "max-inner-bool", "mu-factor-bool",
        "seed-bool", "cli-levels-float",
    ],
)
def test_library_counts_of_the_wrong_type_raise_their_class(call, error):
    # before, levels=2.5 ran 2 levels and levels=True 1, a float size or square
    # side ended in a bare TypeError, a float solver count failed inside
    # solve_bp, and seed=True drew the mask of seed 1
    with pytest.raises(error):
        call()


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: BlockPartition.singletons(2**22), InvalidPartition),
        (lambda: BlockPartition.vertical_lines(2**11), InvalidPartition),
        (lambda: BlockPartition.horizontal_lines(2**11), InvalidPartition),
        (lambda: BlockPartition.squares(2**11, 2**11), InvalidPartition),
        (lambda: BlockPartition.vertical_lines(4.0), InvalidPartition),
        (lambda: OperatorSpec("bogus", "identity", 16), InvalidSpec),
        (lambda: OperatorSpec("dft1d", "bogus", 16), InvalidSpec),
        (lambda: SolverParams(inner_tol="1e-7"), UnsupportedSolver),
        (lambda: small_config(budget=2, fraction=10**400), ConfigError),
        (lambda: small_config(partition=BlockPartition.singletons(16)), InvalidPartition),
        (lambda: small_config(partition=BlockPartition.vertical_lines(4)), InvalidPartition),
        (
            lambda: BlockPartition([np.arange(1024), *np.arange(1024, 2048)[:, None]], "x"),
            InvalidPartition,
        ),
        (lambda: small_config(spec="dft1d:identity:64"), ConfigError),
        (lambda: small_config(weights=np.full(64, 4 / 64)), ConfigError),
        (lambda: small_config(solver={"max_inner": 5}), ConfigError),
        (lambda: small_config(solver=None), ConfigError),
        (lambda: small_config(weight_descriptor=None), ConfigError),
        (lambda: estimate_weights(np.ones((2, 4)), "0.5"), InvalidWeights),
        (lambda: estimate_weights(np.ones((2, 4)), None), InvalidWeights),
        (lambda: normalize_weights(np.full(8, 0.5), "3"), InvalidWeights),
        (lambda: scale_profile_weights(8, 1, 0.9, 0.5, s_target="3"), InvalidWeights),
        (lambda: normalize_weights(["0.5", "0.5"], 1), InvalidWeights),
        (lambda: WeightVector(["a", 0.5]), InvalidWeights),
        (lambda: WeightVector(np.array([0.5j, 0.5])), InvalidWeights),
        (
            lambda: adapted_isolated(
                OperatorSpec("hadamard2d", "haar2d", 4, levels=1), WeightVector(np.full(16, 2.0))
            ),
            InvalidWeights,
        ),
        (lambda: WeightVector(np.array([0.5, np.nan])), InvalidWeights),
        (lambda: WeightVector(np.array([0.5, -1.0])), InvalidWeights),
        (lambda: WeightVector(np.full((2, 2), 0.5)), InvalidWeights),
        (lambda: WeightVector(np.array([])), InvalidWeights),
        (lambda: psnr(np.array([1.0, math.inf]), np.zeros(2)), DimensionMismatch),
        (lambda: psnr(np.array([]), np.array([])), DimensionMismatch),
        (lambda: Density(np.full((2, 2), 0.25), 1.0), InvalidSpec),
        (lambda: Density([0.5, 0.5, -1e-16], 1.0), InvalidSpec),
        (lambda: Density(["a", "b"], 1.0), InvalidSpec),
        (lambda: Density(np.array([0.5 + 0.5j, 0.5]), 1.0), InvalidSpec),
        (lambda: Density([0.5, 0.5], "x"), InvalidSpec),
        (lambda: Density([0.5, 0.5], math.inf), InvalidSpec),
        (lambda: Density([0.5, 0.5], 0.0), InvalidSpec),
        (lambda: Mask([0.5, 1.5], [1, 1]), DimensionMismatch),
        (lambda: Mask([0, 1], [1, 0]), DimensionMismatch),
        (lambda: Mask([0, 1], [1, 1.5]), DimensionMismatch),
        (lambda: Mask([0, 1], [1]), DimensionMismatch),
        (lambda: apply(parse_spec("dft2d:haar2d:8:2"), "forward", np.ones(64)), InvalidSpec),
        (lambda: _small_diagnostics(epsilon="0.1"), ConfigError),
        (lambda: _small_diagnostics(epsilon=None), ConfigError),
        (lambda: scale_profile_weights(2**11, 3, 0.9, 0.5), ConfigError),
        (lambda: scale_profile_weights(8.0, 1, 0.9, 0.5), ConfigError),
        (lambda: scale_profile_weights(8, 1.0, 0.9, 0.5), ConfigError),
        (lambda: scale_profile_weights(8, 1, "0.9", 0.5), InvalidWeights),
    ],
    ids=[
        "singletons-beyond-max-dim", "vertical-lines-beyond-max-dim",
        "horizontal-lines-beyond-max-dim", "squares-beyond-max-dim", "line-side-float",
        "measurement-name", "sparsity-name", "solver-scale-string", "fraction-overflow",
        "singletons-of-another-dim", "lines-of-another-dim", "padded-table-beyond-max-dim",
        "config-spec-string", "config-weights-array", "config-solver-dict", "config-solver-none",
        "config-descriptor-none",
        "threshold-string", "threshold-none", "target-string", "profile-target-string",
        "normalize-omega-strings", "omega-string", "omega-complex", "omega-above-one",
        "omega-nan", "omega-negative", "omega-2d", "omega-empty",
        "psnr-reference-inf", "psnr-empty", "density-2d", "density-negative",
        "density-strings", "density-complex", "normalizer-string", "normalizer-inf",
        "normalizer-zero",
        "mask-float-indices", "mask-zero-multiplicity", "mask-fractional-multiplicity",
        "mask-lengths-differ", "apply-direction-string", "epsilon-string", "epsilon-none",
        "profile-beyond-max-dim", "profile-side-float", "profile-levels-float",
        "profile-base-string",
    ],
)
def test_library_inputs_end_in_their_error_class(call, error):
    # before, a partition of K > MAX_DIM was allocated (2^22 indices here),
    # an unknown name ended in a bare ValueError, a string scale or a float
    # line side in a bare TypeError and a huge fraction in an OverflowError;
    # a partition of K = 16 ran on the K = 64 operator, reporting a coverage
    # of rows it does not own; 1025 blocks padded to 1024 rows would take
    # 2^20 + 2^10 table entries for K = 2048.  A string threshold or target
    # ended in a bare TypeError, string omega entries in a ValueError and
    # complex ones in a TypeError (an array: a ComplexWarning and its real
    # part), an infinite PSNR peak gave an infinite PSNR, and empty arrays a
    # ValueError; a 2D density, float mask indices (truncated) and
    # multiplicities below 1 or fractional were accepted, and
    # mismatched lengths ended in a numpy broadcast ValueError once expanded;
    # string density entries ended in a bare ValueError, complex ones lost
    # their imaginary part, and a string, infinite or zero normalizer was
    # stored.  A string direction ran the adjoint, a string or None epsilon
    # ended in a bare TypeError, as did a float profile side or level count
    # (a string base in numpy's UFuncTypeError), and a 2^11 profile side
    # built all 2^22 weights.  A config took a spec, weights, solver or
    # weight descriptor of any type: a string spec or array weights ended in
    # an AttributeError, a dict solver in one inside solve_bp, and a None
    # solver or descriptor ran every solve before a TypeError in describe().
    # Weights built with an explicit sum skipped every omega check (entries
    # of 2 gave an adapted density with normalizer 32), and a density entry
    # of -1e-16 passed its check, to be refused later by draw_mask alone
    with pytest.raises(error):
        call()


def test_diagnostics_tail_counts_exact_ties():
    # A0 = I, support {0}, pi = (1/2, 1/2, 0, 0), m = 4: the scaled Gram is
    # the 1 x 1 matrix mult_0 / 2, so its deviation is exactly 1/2 when row 0
    # is drawn once or three times; each draw adds (1 / sqrt(2))^2, which
    # rounds to 0.5000000000000001, so one draw deviates just under 1/2.  A
    # trial is a hit unless row 0 is drawn exactly twice.
    spec = OperatorSpec(Measurement.IDENTITY, Sparsity.IDENTITY, 4)
    dens = Density(np.array([0.5, 0.5, 0.0, 0.0]), 1.0)
    wv = WeightVector(np.array([1.0, 0.0, 0.0, 0.0]))
    d = diagnostics(spec, BlockPartition.singletons(4), dens, wv, m=4, trials=20, seed=0)
    mask_rng = np.random.default_rng(np.random.SeedSequence(0).spawn(2)[1])  # the mask stream
    mult = []
    for _ in range(20):
        mask = draw_mask(dens, 4, mode=IID, seed=mask_rng)
        mult.append(int(mask.multiplicities[mask.indices == 0].sum()))
    assert {1, 3} <= set(mult)
    assert d.gram_tail_prob == np.mean(np.array(mult) != 2)
    assert np.sqrt(1 / 2) ** 2 > 1 / 2  # the ties round to deviations below 1/2


def test_diagnostics_lambda_invariant_under_block_permutation():
    spec = OperatorSpec(Measurement.DFT2D, Sparsity.TENSOR_HAAR, 4, levels=1)
    wv = normalize_weights(np.full(16, 3 / 16), 3)
    part = BlockPartition.vertical_lines(4)
    shuffled = BlockPartition(
        [part.table[i] for i in (2, 0, 3, 1)], kind="vertical_lines"
    )
    dens = baseline_density("uniform", spec, part)
    d1 = diagnostics(spec, part, dens, wv, m=6, trials=5, seed=4)
    d2 = diagnostics(spec, shuffled, dens, wv, m=6, trials=5, seed=4)
    assert np.allclose(d1.lambda_samples, d2.lambda_samples)
    assert d1.mu == pytest.approx(d2.mu)
