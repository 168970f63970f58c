"""Experiment helpers that only the tests use.

`synth_corpus` draws a coefficient corpus from a weight profile, so
weight estimation can be checked against the weights that made it;
`smallest_m_reaching` reads the budget a phase-transition table first
reaches a success rate at; `reference_phase_transition` is the sweep's
own per-kind trial loop, kept as the oracle of `harness.phase_transition`,
which runs the experiment's trial pipeline.
"""

import numpy as np

from avds.harness import PhasePoint, _setup
from avds.masks import DISTINCT, draw_mask, expand_blocks
from avds.recon import MeasurementOp, measure, solve_bp
from avds.support_model import (
    SupportDistribution,
    WeightVector,
    draw_signals,
    normalize_weights,
    sample_supports,
)


def synth_corpus(
    weights: WeightVector, n: int, floor: float = 0.5, seed=None
) -> np.ndarray:
    """n coefficient vectors with rejective supports and magnitudes >= floor."""
    rng = np.random.default_rng(seed)
    s_int = int(round(weights.sparsity))
    dist = SupportDistribution(normalize_weights(weights.omega, s_int))
    masks = sample_supports(dist, n, seed=rng.integers(2**63))
    mags = rng.uniform(floor, 1.0, size=masks.shape)
    signs = rng.integers(0, 2, size=masks.shape) * 2 - 1
    return masks * mags * signs


def smallest_m_reaching(points, rate: float) -> int | None:
    """First budget in the table whose success rate reached `rate`."""
    for p in sorted(points, key=lambda p: p.m):
        if p.success_rate >= rate:
            return p.m
    return None


def _trial(cfg, x: np.ndarray, density, budget: int, seed):
    """One trial step: DISTINCT mask (expanded to rows), measure x, solve."""
    mask = expand_blocks(draw_mask(density, budget, mode=DISTINCT, seed=seed), cfg.partition)
    op = MeasurementOp(cfg.spec, mask)
    return solve_bp(measure(x, op), op, cfg.solver)


def reference_phase_transition(cfg, m_grid, prune_target: float | None = None) -> dict:
    """Success rate (relative l2 error <= 1e-3) vs budget per kind.

    Trial t at budget m reads `SeedSequence((master_seed, m)).spawn(trials)[t]`,
    children [signal, mask], for every kind.  With prune_target set, a grid
    point stops early once that success rate has become unreachable, that
    is once (trials - failures) / trials is below it; the point is flagged
    pruned.
    """
    densities, dist = _setup(cfg)
    table: dict = {kind: [] for kind in cfg.density_kinds}
    for kind in cfg.density_kinds:
        supported = int(np.count_nonzero(densities[kind].pi > 0))
        for m in m_grid:
            if m > supported:
                table[kind].append(PhasePoint(int(m), 0.0, 0, pruned=True))
                continue
            seeds = np.random.SeedSequence((cfg.master_seed, int(m))).spawn(cfg.trials)
            successes = 0
            failures = 0
            run = 0
            for t in range(cfg.trials):
                children = seeds[t].spawn(2)
                x = draw_signals(dist, 1, seed=children[0])[0]
                result = _trial(cfg, x, densities[kind], int(m), children[1])
                err = np.linalg.norm(result.x - x) / np.linalg.norm(x)
                run += 1
                if err <= 1e-3:
                    successes += 1
                else:
                    failures += 1
                reachable = (cfg.trials - failures) / cfg.trials
                if prune_target is not None and reachable < prune_target:
                    break
            table[kind].append(
                PhasePoint(int(m), successes / run, run, pruned=run < cfg.trials)
            )
    return table
