"""Experiment helpers that only the tests use.

`synth_corpus` draws a coefficient corpus from a weight profile, so
weight estimation can be checked against the weights that made it;
`smallest_m_reaching` reads the budget a phase-transition table first
reaches a success rate at.
"""

import numpy as np

from avds.support_model import (
    SupportDistribution,
    WeightVector,
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
