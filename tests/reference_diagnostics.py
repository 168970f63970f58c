"""Reference diagnostics loop, test use only.

This is `avds.harness.diagnostics` one trial at a time, on the same two
random streams (`SeedSequence(seed).spawn(2)`): one
`sample_supports(dist, 1, seed=support_rng)` call, one forward transform of
a one-hot slab and one deduplicated `draw_mask(..., IID, seed=mask_rng)`
per trial.  The fast version must give the same tail counts, mu,
thresholds and bounds exactly, and Lambda samples within 1e-13 relative:
its column entries are products of per-axis rows, which round differently
from the transform, and its Grams sum every draw where this one weights
each distinct row by its count, which rounds differently too.
"""

from __future__ import annotations

import numpy as np

from avds.density import block_norm_terms
from avds.harness import TAIL_TIE_TOL, Diagnostics, signal_distribution
from avds.masks import IID, draw_mask
from avds.support_model import sample_supports
from avds.transforms import Direction, apply


def reference_diagnostics(spec, partition, density, weights, m, trials=200, seed=None,
                          epsilon=0.01) -> Diagnostics:
    gram_terms, inf_terms = block_norm_terms(spec, partition, weights)
    pi = density.pi
    live = pi > 0
    mu = float(np.max(inf_terms[live] / (pi[live] * m)))
    threshold_inf1 = float(np.max(inf_terms[live] / pi[live]))
    threshold_gram = float(np.max(gram_terms[live] / pi[live]))
    logk = np.log(spec.dim / epsilon)
    blocks = [row[:size] for row, size in zip(partition.table, partition.sizes)]

    dist = signal_distribution(weights)
    support_rng, mask_rng = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))
    lam = np.empty(trials)
    hits = 0
    for t in range(trials):
        support = np.flatnonzero(sample_supports(dist, 1, seed=support_rng)[0])
        slab = np.zeros((support.size, spec.dim))
        slab[np.arange(support.size), support] = 1.0
        cols = apply(spec, Direction.FORWARD, slab).T  # (K, S) columns of A0
        # Lambda_I = max_k ||B_k[:, I]||^2 / (pi_k m)
        singleton = partition.kind == "singletons"
        if singleton:
            block_sq = np.sum(np.abs(cols) ** 2, axis=1)
        else:
            block_sq = np.empty(partition.m)
            for k, idx in enumerate(blocks):
                sub = cols[idx, :]
                gram = sub.conj().T @ sub
                block_sq[k] = float(
                    np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))[-1].real
                )
        lam[t] = float(np.max(block_sq[live] / (pi[live] * m)))
        # theorem-scaled mask and its restricted Gram
        mask = draw_mask(density, m, mode=IID, seed=mask_rng)
        scale = np.sqrt(mask.multiplicities / (m * pi[mask.indices]))
        if singleton:
            a_i = scale[:, None] * cols[mask.indices, :]
        else:
            a_i = np.concatenate(
                [s * cols[blocks[k], :] for s, k in zip(scale, mask.indices)],
                axis=0,
            )
        hits += reference_tail_hits((a_i.conj().T @ a_i)[None])
    return Diagnostics(
        mu=mu,
        lambda_samples=lam,
        gram_tail_prob=hits / trials,
        m=m,
        threshold_inf1=threshold_inf1,
        threshold_gram=threshold_gram,
        m_bound_inf1=threshold_inf1 * logk**3,
        m_bound_gram=threshold_gram * logk**2,
    )


def reference_tail_hits(grams) -> int:
    """Trials whose Gram deviates from I by 1/2 or more, by `eigvalsh` on each one.

    The oracle of `avds.harness._tail_hits`, which sends to `eigvalsh` only
    the trials its bounds leave undecided.
    """
    hits = 0
    for gram in grams:
        dev = np.abs(np.linalg.eigvalsh(0.5 * (gram + gram.conj().T)) - 1.0).max()
        hits += bool(dev >= 0.5 - TAIL_TIE_TOL)
    return hits
