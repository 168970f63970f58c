import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from reference_diagnostics import reference_diagnostics
from reference_harness import reference_phase_transition, smallest_m_reaching, synth_corpus

from avds import harness
from avds.cli import _SHARED_KEYS, _experiment_config
from avds.density import BlockPartition, Density, adapted_isolated, baseline_density
from avds.errors import ConfigError, DimensionMismatch, InfeasibleBudget
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
from avds.masks import IID, draw_mask
from avds.recon import SolverParams
from avds.support_model import (
    WeightVector,
    estimate_weights,
    normalize_weights,
)
from avds.transforms import Measurement, OperatorSpec, Sparsity


def test_psnr_basics():
    ref = np.ones((4, 4))
    assert psnr(ref, ref) == math.inf
    rec = ref + 1.0
    assert psnr(ref, rec, peak=1.0) == pytest.approx(0.0, abs=1e-12)
    noise = np.full((4, 4), np.sqrt(1e-3))
    assert psnr(ref, ref + noise, peak=1.0) == pytest.approx(30.0, abs=1e-9)
    with pytest.raises(DimensionMismatch):
        psnr(np.ones(3), np.ones(4))


def test_psnr_symmetry_with_fixed_peak():
    rng = np.random.default_rng(0)
    a = rng.normal(size=16)
    b = rng.normal(size=16)
    assert psnr(a, b, peak=2.0) == pytest.approx(psnr(b, a, peak=2.0))


def test_synth_corpus_properties():
    wv = WeightVector.from_omega(np.array([1.0, 0, 1.0, 0, 0, 0, 0, 0]))
    corpus = synth_corpus(wv, 20, floor=0.3, seed=1)
    assert corpus.shape == (20, 8)
    assert np.all((corpus[:, [0, 2]] != 0))
    assert np.all(corpus[:, [1, 3, 4, 5, 6, 7]] == 0)
    nz = np.abs(corpus[corpus != 0])
    assert nz.min() >= 0.3

    rng = np.random.default_rng(2)
    omega = normalize_weights(rng.uniform(0.05, 0.5, 256), 16).omega
    wv = WeightVector(omega, 16.0)
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
    wv = WeightVector.from_omega(omega)
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
    ],
)
def test_diagnostics_match_per_trial_reference(spec, part, omega, kind):
    wv = WeightVector.from_omega(omega)
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


def test_diagnose_config_matches_per_trial_reference():
    # configs/diagnose_hadamard_haar.json at full size, read as `avds diagnose` reads it
    path = Path(__file__).resolve().parents[1] / "configs" / "diagnose_hadamard_haar.json"
    raw = json.loads(path.read_text())
    shared = {key: raw[key] for key in _SHARED_KEYS if key in raw}
    cfg = _experiment_config(dict(shared, budget=1), str(path))
    dens = build_density(raw["density"], cfg, cfg.weights)
    args = (cfg.spec, cfg.partition, dens, cfg.weights)
    assert (raw["m"], raw["trials"], cfg.master_seed) == ([32, 64, 128, 256], 200, 17)
    for m in raw["m"]:
        got = diagnostics(*args, m=m, trials=raw["trials"], seed=cfg.master_seed)
        want = reference_diagnostics(*args, m=m, trials=raw["trials"], seed=cfg.master_seed)
        np.testing.assert_allclose(got.lambda_samples, want.lambda_samples, rtol=1e-13, atol=0)
        for key in ("mu", "gram_tail_prob", "threshold_inf1", "threshold_gram"):
            assert getattr(got, key) == getattr(want, key), key


_LINES_CONFIG = {
    # the line-block diagnose config that CI runs twice and compares
    "schema_version": 1,
    "seed": 5,
    "spec": {"measurement": "dft2d", "sparsity": "tensor_db4", "size": 16, "levels": 2},
    "partition": {"kind": "vertical_lines"},
    "weights": {"source": "uniform", "sparsity": 4},
    "density": "adapted",
    "m": [4, 8],
    "trials": 40,
}


@pytest.mark.parametrize(
    "config,m",
    [("diagnose", 32), ("diagnose", 256), ("lines", 4), ("lines", 8)],
)
def test_diagnostics_stack_size_changes_no_value(monkeypatch, config, m):
    path = Path(__file__).resolve().parents[1] / "configs" / "diagnose_hadamard_haar.json"
    raw = json.loads(path.read_text()) if config == "diagnose" else _LINES_CONFIG
    shared = {key: raw[key] for key in _SHARED_KEYS if key in raw}
    cfg = _experiment_config(dict(shared, budget=1), str(path))
    dens = build_density(raw["density"], cfg, cfg.weights)
    runs = []
    # one trial per stack and chunk, a few trials per chunk, one stack for all
    for entries in (1 << 8, 1 << 11, 1 << 20):
        monkeypatch.setattr(harness, "_STACK_ENTRIES", entries)
        runs.append(
            diagnostics(
                cfg.spec, cfg.partition, dens, cfg.weights,
                m=m, trials=raw["trials"], seed=cfg.master_seed,
            )
        )
    for run in runs[1:]:
        assert np.array_equal(run.lambda_samples, runs[0].lambda_samples)
        assert run.gram_tail_prob == runs[0].gram_tail_prob


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
                WeightVector.from_omega(np.r_[np.full(16, 3 / 16), np.zeros(16)]),
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
        ({"success_threshold": -1.0}, ConfigError),
        ({"success_threshold": math.inf}, ConfigError),
        ({"success_threshold": math.nan}, ConfigError),
        ({"m_grid": [8, 12.9]}, InfeasibleBudget),
        ({"m_grid": [8.0]}, InfeasibleBudget),
        ({"m_grid": [0]}, InfeasibleBudget),
        ({"m_grid": [np.int64(-4)]}, InfeasibleBudget),
        ({"m_grid": [True]}, InfeasibleBudget),
    ],
    ids=[
        "prune-above-1", "prune-below-0", "prune-nan",
        "threshold-negative", "threshold-inf", "threshold-nan",
        "m-fractional", "m-float", "m-zero", "m-negative", "m-bool",
    ],
)
def test_phase_transition_rejects_bad_inputs_before_any_solve(monkeypatch, kwargs, error):
    def no_solve(*args, **kwargs):
        pytest.fail("phase_transition solved before checking its inputs")

    monkeypatch.setattr(harness, "solve_bp", no_solve)
    with pytest.raises(error):
        phase_transition(_k32_config(["uniform"], 2), **{"m_grid": [8], **kwargs})


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


def test_diagnostics_tail_counts_exact_ties():
    # A0 = I, support {0}, pi = (1/2, 1/2, 0, 0), m = 4: the scaled Gram is
    # the 1 x 1 matrix mult_0 / 2, so its deviation is exactly 1/2 when row 0
    # is drawn once or three times; each draw adds (1 / sqrt(2))^2, which
    # rounds to 0.5000000000000001, so one draw deviates just under 1/2.  A
    # trial is a hit unless row 0 is drawn exactly twice.
    spec = OperatorSpec(Measurement.IDENTITY, Sparsity.IDENTITY, 4)
    dens = Density(np.array([0.5, 0.5, 0.0, 0.0]), 1.0)
    wv = WeightVector.from_omega(np.array([1.0, 0.0, 0.0, 0.0]))
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
        [part.blocks[i] for i in (2, 0, 3, 1)], kind="vertical_lines"
    )
    dens = baseline_density("uniform", spec, part)
    d1 = diagnostics(spec, part, dens, wv, m=6, trials=5, seed=4)
    d2 = diagnostics(spec, shuffled, dens, wv, m=6, trials=5, seed=4)
    assert np.allclose(d1.lambda_samples, d2.lambda_samples)
    assert d1.mu == pytest.approx(d2.mu)
