"""Acceptance suite: one test per stated criterion, fixed seeds throughout.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line per
criterion.  Criteria 7-9 and 11 run reconstruction experiments and take a
few minutes each; they are marked `slow`.
"""

import itertools
import time

import numpy as np
import pytest
from reference_harness import smallest_m_reaching, synth_corpus
from reference_recon import check_fuchs
from reference_support import rejection_supports, support_prob
from reference_transforms import row_energies

from avds.density import (
    BlockPartition,
    Density,
    _dense_terms,
    adapted_blocks,
    adapted_isolated,
)
from avds.harness import (
    ExperimentConfig,
    diagnostics,
    phase_transition,
    run_experiment,
    scale_profile_weights,
)
from avds.masks import DISTINCT, draw_mask
from avds.recon import MeasurementOp, SolverParams, measure, solve_bp
from avds.support_model import (
    SupportDistribution,
    WeightVector,
    estimate_weights,
    normalize_weights,
    sample_supports,
)
from avds.transforms import Measurement, OperatorSpec, Sparsity

MASTER_SEED = 20260809

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num:2d} [{'PASS' if ok else 'FAIL'}] {detail}")


def random_valid_weights(k, s, seed):
    return normalize_weights(np.random.default_rng(seed).uniform(0.01, 1.0, k), s)


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_fourier_uniformity():
    t0 = time.perf_counter()
    worst = 0.0
    for spec in (
        OperatorSpec(Measurement.DFT1D, Sparsity.IDENTITY, 1024),
        OperatorSpec(Measurement.DFT2D, Sparsity.IDENTITY, 32),
    ):
        for i in range(20):
            wv = random_valid_weights(1024, 16, seed=100 + i)
            dens = adapted_isolated(spec, wv)
            worst = max(worst, float(np.max(np.abs(dens.pi - 1.0 / 1024))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    report(1, ok, f"Fourier adapted density uniform: max|pi-1/K|={worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 1.0


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_identity_case():
    spec = OperatorSpec(Measurement.IDENTITY, Sparsity.IDENTITY, 64)
    rng = np.random.default_rng(2)
    omega = np.zeros(64)
    j = np.sort(rng.choice(64, 20, replace=False))
    omega[j] = rng.uniform(0.2, 0.9, 20)
    wv = normalize_weights(omega, 8)
    dens = adapted_isolated(spec, wv)
    expected = np.zeros(64)
    expected[j] = 1.0 / len(j)
    exact = np.array_equal(dens.pi, expected)
    report(2, exact, f"identity operator density uniform on J (|J|={len(j)}), exact equality: {exact}")
    assert exact


# ---------------------------------------------------------------- criterion 3

def test_criterion_3_trace_identity():
    worst = 0.0
    for spec in (
        OperatorSpec(Measurement.HADAMARD2D, Sparsity.HAAR2D, 16),
        OperatorSpec(Measurement.HADAMARD2D, Sparsity.HAAR2D, 32),
        OperatorSpec(Measurement.DFT2D, Sparsity.DB4_2D, 16),
        OperatorSpec(Measurement.DFT2D, Sparsity.DB4_2D, 32),
    ):
        k = spec.dim
        wv = random_valid_weights(k, k // 64, seed=300 + k)
        total = float((row_energies(spec) @ wv.omega).sum())
        worst = max(worst, abs(total - wv.sparsity))
    ok = worst <= 1e-8
    report(3, ok, f"trace identity sum_k a_k D_w a_k* = S, worst |err|={worst:.2e}")
    assert worst <= 1e-8


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_rejective_model():
    t0 = time.perf_counter()
    k, s = 6, 3
    wv = random_valid_weights(k, s, seed=44)
    dist = SupportDistribution(wv)
    supports = list(itertools.combinations(range(k), s))
    probs = np.array([support_prob(dist, list(sup)) for sup in supports])
    sum_err = abs(probs.sum() - 1.0)

    index_of = {sup: i for i, sup in enumerate(supports)}

    samplers = {"exact": sample_supports, "rejection": rejection_supports}

    def empirical(method, seed):
        masks = samplers[method](dist, 100_000, seed=seed)
        counts = np.zeros(len(supports))
        keys = [tuple(np.flatnonzero(row)) for row in masks]
        for key in keys:
            counts[index_of[key]] += 1
        return counts / counts.sum()

    emp_exact = empirical("exact", 1)
    emp_rej = empirical("rejection", 2)
    tv_exact = 0.5 * np.abs(emp_exact - probs).sum()
    tv_cross = 0.5 * np.abs(emp_exact - emp_rej).sum()
    elapsed = time.perf_counter() - t0
    ok = sum_err <= 1e-12 and tv_exact <= 0.02 and tv_cross <= 0.03 and elapsed < 30
    report(
        4,
        ok,
        f"rejective model: sum err {sum_err:.1e}, TV(exact,closed-form) {tv_exact:.4f}, "
        f"TV(exact,rejection) {tv_cross:.4f}, {elapsed:.1f}s",
    )
    assert sum_err <= 1e-12
    assert tv_exact <= 0.02
    assert tv_cross <= 0.03
    assert elapsed < 30


# ---------------------------------------------------------------- criterion 5

def test_criterion_5_line_block_closed_form():
    side = 16  # K = 256
    spec = OperatorSpec(Measurement.DFT2D, Sparsity.TENSOR_HAAR, side, levels=2)
    worst = 0.0
    for i in range(10):
        omega = np.random.default_rng(500 + i).uniform(0.01, 0.95, side * side)
        wv = WeightVector.from_omega(omega)
        for part in (
            BlockPartition.vertical_lines(side),
            BlockPartition.horizontal_lines(side),
        ):
            closed = adapted_blocks(spec, part, wv)
            numer = np.maximum(*_dense_terms(spec, part, np.arange(part.m), wv))
            worst = max(worst, float(np.max(np.abs(closed.pi - numer / numer.sum()))))
    ok = worst <= 1e-8
    report(5, ok, f"line closed form vs dense eigensolve, worst |dpi|={worst:.2e}")
    assert worst <= 1e-8


# ---------------------------------------------------------------- criterion 6

def test_criterion_6_solver_vs_fuchs_oracle():
    t0 = time.perf_counter()
    spec = OperatorSpec(Measurement.DFT1D, Sparsity.IDENTITY, 64)
    uni = Density(np.full(64, 1 / 64), 64.0)
    rng = np.random.default_rng(MASTER_SEED)
    kept = 0
    worst = 0.0
    while kept < 50:
        s = int(rng.choice([2, 4]))
        support = np.sort(rng.choice(64, s, replace=False))
        signs = rng.choice([-1.0, 1.0], s)
        mask = draw_mask(uni, 32, mode=DISTINCT, seed=int(rng.integers(2**63)))
        cert = check_fuchs(spec, mask, support, signs)
        if cert >= 0.99:
            continue
        kept += 1
        x = np.zeros(64)
        x[support] = signs
        op = MeasurementOp(spec, mask)
        res = solve_bp(measure(x, op), op)
        worst = max(worst, float(np.linalg.norm(res.x - x) / np.linalg.norm(x)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 120
    report(6, ok, f"50 Fuchs-certified instances, worst rel l2 err {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-4
    assert elapsed < 120


# ---------------------------------------------------------------- criterion 7

def _figure1_config(fraction: float) -> ExperimentConfig:
    spec = OperatorSpec(Measurement.HADAMARD2D, Sparsity.HAAR2D, 64)  # depth 3
    wv = WeightVector.from_omega(np.full(4096, 32 / 4096))
    return ExperimentConfig(
        spec=spec,
        weights=wv,
        density_kinds=["adapted", "uniform", "coherence"],
        trials=10,
        master_seed=MASTER_SEED,
        fraction=fraction,
        weight_descriptor={"source": "uniform", "sparsity": 32},
    )


@pytest.mark.slow
def test_criterion_7_figure1_ordering_as_stated():
    # Stated parameters: K=4096, S=32, 5% distinct samples, 10 trials.
    # A 5% budget gives m/S = 6.4, below the recovery transition of every
    # density for this operator family (an independent LP solve agrees the
    # minimisers are non-unique there), so the PSNR comparison degenerates
    # into noise.  Kept as stated rather than retuned; the companion test
    # below runs the budget that preserves the comparison's regime.
    t0 = time.perf_counter()
    report_data = run_experiment(_figure1_config(0.05))
    m = report_data.psnr_mean
    elapsed = time.perf_counter() - t0
    ordered = m["adapted"] > m["uniform"] > m["coherence"]
    margin = m["adapted"] - m["coherence"]
    ok = ordered and margin >= 3.0 and elapsed < 600
    report(
        7,
        ok,
        "figure-1 ordering at stated 5%: "
        f"adapted {m['adapted']:.1f} dB, uniform {m['uniform']:.1f} dB, "
        f"coherence {m['coherence']:.1f} dB, margin {margin:.1f} dB, {elapsed:.0f}s",
    )
    assert ordered, f"means {m} not ordered adapted > uniform > coherence"
    assert margin >= 3.0
    assert elapsed < 600


@pytest.mark.slow
def test_criterion_7_figure1_ordering_regime_preserving():
    # Same experiment at a 10% budget.  This checks the ordering of PSNR
    # means, not recovery: 10% is still inside the recovery transition
    # (a 20-trial sweep recovered 45% / 20% / 0% of the signals).
    t0 = time.perf_counter()
    report_data = run_experiment(_figure1_config(0.10))
    m = report_data.psnr_mean
    elapsed = time.perf_counter() - t0
    ordered = m["adapted"] > m["uniform"] > m["coherence"]
    margin = m["adapted"] - m["coherence"]
    ok = ordered and margin >= 3.0 and elapsed < 600
    report(
        7,
        ok,
        "figure-1 ordering, regime-preserving 10%: "
        f"adapted {m['adapted']:.1f} dB, uniform {m['uniform']:.1f} dB, "
        f"coherence {m['coherence']:.1f} dB, margin {margin:.1f} dB, {elapsed:.0f}s",
    )
    assert ordered
    assert margin >= 3.0
    assert elapsed < 600


# ---------------------------------------------------------------- criterion 8

@pytest.mark.slow
def test_criterion_8_flip_test_ordering():
    t0 = time.perf_counter()
    spec = OperatorSpec(Measurement.DFT2D, Sparsity.DB4_2D, 64)
    wv_true = scale_profile_weights(64, 3, base=0.85, decay=0.12, layout="mra2d")
    corpus = synth_corpus(wv_true, 300, floor=0.5, seed=11)
    est = estimate_weights(corpus, threshold=0.25)
    cfg = ExperimentConfig(
        spec=spec,
        weights=est,
        density_kinds=["adapted", "polynomial"],
        trials=10,
        master_seed=MASTER_SEED,
        fraction=0.10,
        flip_coefficients=True,
        weight_descriptor={"source": "synthetic corpus", "threshold": 0.25},
    )
    rep = run_experiment(cfg)
    m = rep.psnr_mean
    gap = m["adapted"] - m["polynomial"]
    elapsed = time.perf_counter() - t0
    ok = gap >= 3.0 and elapsed < 600
    report(
        8,
        ok,
        f"flip test at 10%: adapted {m['adapted']:.1f} dB vs polynomial "
        f"{m['polynomial']:.1f} dB, gap {gap:.1f} dB, {elapsed:.0f}s",
    )
    assert gap >= 3.0
    assert elapsed < 600


# ---------------------------------------------------------------- criterion 9

@pytest.mark.slow
def test_criterion_9_block_pipeline():
    t0 = time.perf_counter()
    spec = OperatorSpec(Measurement.DFT2D, Sparsity.TENSOR_DB4, 64, levels=3)
    wv = scale_profile_weights(64, 3, base=0.9, decay=0.06, layout="tensor2d")
    results = {}
    for part in (BlockPartition.vertical_lines(64), BlockPartition.squares(64, 16)):
        cfg = ExperimentConfig(
            spec=spec,
            weights=wv,
            density_kinds=["adapted", "uniform"],
            trials=10,
            master_seed=MASTER_SEED,
            partition=part,
            fraction=0.20,
        )
        rep = run_experiment(cfg)
        # Density construction enforces nonnegativity and normalisation;
        # double-check the reported extrema.
        for kind in ("adapted", "uniform"):
            assert rep.density_info[kind]["min"] >= 0
        block_rows = part.table.shape[1]
        covered = rep.covered_fraction["adapted"]
        assert abs(covered - 0.20) <= block_rows / spec.dim
        results[part.kind] = rep.psnr_mean
    elapsed = time.perf_counter() - t0
    ok = all(r["adapted"] >= r["uniform"] for r in results.values()) and elapsed < 600
    detail = ", ".join(
        f"{k}: adapted {v['adapted']:.1f} vs uniform {v['uniform']:.1f} dB"
        for k, v in results.items()
    )
    report(9, ok, f"block pipeline at 20%: {detail}, {elapsed:.0f}s")
    for kind, r in results.items():
        assert r["adapted"] >= r["uniform"], f"{kind}: {r}"
    assert elapsed < 600


# --------------------------------------------------------------- criterion 10

def test_criterion_10_gram_tail_monotone():
    spec = OperatorSpec(Measurement.HADAMARD2D, Sparsity.HAAR2D, 32, levels=2)
    wv = WeightVector.from_omega(np.full(1024, 16 / 1024))
    dens = adapted_isolated(spec, wv)
    part = BlockPartition.singletons(1024)
    tails = []
    for m in (32, 64, 128, 256):  # 2S, 4S, 8S, 16S at S = 16
        d = diagnostics(spec, part, dens, wv, m=m, trials=200, seed=17)
        tails.append(d.gram_tail_prob)
    monotone = all(a >= b for a, b in zip(tails, tails[1:]))
    report(10, monotone, f"P(||A_I*A_I - I|| >= 1/2) over m=2S..16S: {tails}")
    assert monotone


# --------------------------------------------------------------- criterion 11

@pytest.mark.slow
def test_criterion_11_phase_transition_dominance():
    t0 = time.perf_counter()
    s = 16
    spec = OperatorSpec(Measurement.HADAMARD2D, Sparsity.HAAR2D, 32, levels=1)
    wv = WeightVector.from_omega(np.full(1024, s / 1024))
    cfg = ExperimentConfig(
        spec=spec,
        weights=wv,
        density_kinds=["adapted", "coherence"],
        trials=50,
        master_seed=MASTER_SEED,
        budget=s,
        solver=SolverParams(continuation_steps=4, final_mu_factor=1e-5, max_inner=800),
    )
    found: dict = {"adapted": None, "coherence": None}
    next_m = s
    while next_m <= 1024 and any(v is None for v in found.values()):
        window = list(range(next_m, min(next_m + 4 * s, 1024 + 1), s))
        table = phase_transition(cfg, window, prune_target=0.95)
        for kind in found:
            if found[kind] is None:
                found[kind] = smallest_m_reaching(table[kind], 0.95)
        next_m = window[-1] + s
    elapsed = time.perf_counter() - t0
    ok = (
        found["adapted"] is not None
        and found["coherence"] is not None
        and found["adapted"] <= found["coherence"]
    )
    report(
        11,
        ok,
        f"95%-success budgets: adapted m={found['adapted']}, "
        f"coherence m={found['coherence']}, {elapsed:.0f}s",
    )
    assert found["adapted"] is not None
    assert found["coherence"] is not None
    assert found["adapted"] <= found["coherence"]
