"""The Gram-tail screen of `harness._tail_hits` against `eigvalsh` on every trial.

`_tail_hits` counts a trial as a hit without an eigensolve when the largest
column norm of G - I already passes the threshold by more than `eigvalsh`'s
error; `reference_diagnostics.reference_tail_hits` runs `eigvalsh` on every
trial.  The counts must be equal on real and complex Grams of drawn
supports, on trials whose deviation is exactly 1/2, and on Grams built by
hand within 1e-13 of the threshold.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_diagnostics import reference_tail_hits

from avds.cli import _diagnose_config
from avds.harness import TAIL_TIE_TOL, _tail_hits, diagnose_rows
from avds.transforms import Direction, Measurement, OperatorSpec, Sparsity, apply

SPECS = [
    OperatorSpec(Measurement.HADAMARD2D, Sparsity.HAAR2D, 8, levels=1),
    OperatorSpec(Measurement.HADAMARD2D, Sparsity.HAAR2D, 32, levels=2),
    OperatorSpec(Measurement.DFT2D, Sparsity.TENSOR_DB4, 16, levels=2),
    OperatorSpec(Measurement.DFT2D, Sparsity.HAAR2D, 32, levels=2),
]


def _grams(spec, s, m, trials, rng, uniform=True):
    """Scaled Grams A_I* A_I of i.i.d. masks drawn from a density, one support per trial."""
    k = spec.dim
    pi = np.full(k, 1.0 / k) if uniform else rng.dirichlet(np.ones(k))
    grams = []
    for _ in range(trials):
        support = rng.choice(k, s, replace=False)
        slab = np.zeros((s, k))
        slab[np.arange(s), support] = 1.0
        cols = apply(spec, Direction.FORWARD, slab).T  # (K, S) columns of A0
        draws = rng.choice(k, m, p=pi)
        a_i = cols[draws] * (m * pi[draws])[:, None] ** -0.5
        grams.append(a_i.conj().T @ a_i)
    return np.array(grams)


@settings(max_examples=40, deadline=None)
@given(
    spec=st.sampled_from(SPECS),
    s=st.integers(1, 16),
    m=st.integers(1, 512),
    uniform=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_screen_counts_as_eigvalsh_on_drawn_supports(spec, s, m, uniform, seed):
    grams = _grams(spec, s, min(m, spec.dim), 12, np.random.default_rng(seed), uniform)
    assert np.iscomplexobj(grams) == (spec.measurement is Measurement.DFT2D)
    assert _tail_hits(grams) == reference_tail_hits(grams)


@pytest.mark.parametrize("s", [1, 2, 3])
def test_screen_counts_exact_ties_as_eigvalsh(s):
    # Hadamard x Haar at side 8 with 8 uniform draws: many trials deviate by
    # exactly 1/2, the case `TAIL_TIE_TOL` settles
    grams = _grams(SPECS[0], s, 8, 200, np.random.default_rng(s))
    dev = np.abs(np.linalg.eigvalsh(grams) - 1.0).max(axis=1)
    assert np.count_nonzero(np.abs(dev - 0.5) < 1e-12) >= 10
    assert _tail_hits(grams) == reference_tail_hits(grams)


@settings(max_examples=200, deadline=None)
@given(
    size=st.integers(1, 8),
    above=st.booleans(),
    offset=st.floats(-1e-13, 1e-13),
    coupling=st.floats(0.0, 1e-6),
    complex_entries=st.booleans(),
)
def test_screen_counts_as_eigvalsh_at_the_threshold(size, above, offset, coupling, complex_entries):
    # G_00 = 1 +- (1/2 - TAIL_TIE_TOL + offset), the rest of the diagonal 1,
    # and a small coupling that moves the deviation and the column norm
    gram = np.eye(size, dtype=complex if complex_entries else float)
    gram[0, 0] = 1.0 + (1 if above else -1) * (0.5 - TAIL_TIE_TOL + offset)
    if size > 1:
        gram[0, 1] = coupling * (1j if complex_entries else 1.0)
        gram[1, 0] = np.conj(gram[0, 1])
    grams = np.stack([gram, np.eye(size, dtype=gram.dtype)])
    assert _tail_hits(grams) == reference_tail_hits(grams)


def test_screen_spares_eigvalsh_on_the_diagnose_config(monkeypatch):
    # singleton blocks call eigvalsh for tail Grams only: none at m = 32,
    # where every trial's bound decides, and some at m = 256
    path = Path(__file__).resolve().parents[1] / "configs" / "diagnose_hadamard_haar.json"
    cfg, budgets, epsilon = _diagnose_config(str(path))
    eigvalsh, rows = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: rows.append(len(a)) or eigvalsh(a))
    assert (budgets[0], budgets[-1], cfg.trials) == (32, 256, 200)
    diagnose_rows(cfg, budgets[:1], epsilon)
    assert sum(rows) == 0
    diagnose_rows(cfg, budgets[-1:], epsilon)
    assert 0 < sum(rows) < cfg.trials
