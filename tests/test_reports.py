"""Committed reports against fresh runs.

For every `configs/<stem>.json`, `reports/<stem>.json` holds the exact
stdout of the CLI on that config when it was committed: `avds diagnose
--config` for a stem that starts with `diagnose`, else `avds experiment
--config ... --no-timing`.  A change that moves a report regenerates its
file in the same commit and says why in CHANGES.md.

One test per config runs `avds.cli.main` in process from cold memos, twice:
- the two runs print the same bytes (the second one on warm memos);
- a slow stem (see `SLOW`) takes its second run at 2 trials, whose PSNRs
  must be the first two of each kind bit for bit, since trial t's seed
  does not depend on the trial count, and whose densities and coverage
  must be the same;
- each budget of a diagnose config, run alone from cold memos, prints its
  row of the full run;
- a stem that starts with `paired` names kinds whose densities are the same
  array, so every kind scores the same PSNRs;
- the first run matches the committed report.  BLAS kernels round
  differently across CPUs, so floats are compared within a relative
  tolerance: diagnose rows within 1e-12, `m` and `gram_tail_prob` (a count
  over the trials) exactly; experiment reports within
  `EXPERIMENT_REL_TOL`, their counts, strings, booleans and `config`
  exactly.

A slow test regenerates each fast report under OpenBLAS's Sandybridge
kernels, in a child process, and holds it to the same comparison.

This is the one place the committed experiments run: acceptance criteria
7, 9 and 10 read `figure1_stated`, `figure1_uniform_supports`,
`blocks_lines`, `blocks_squares` and `diagnose_hadamard_haar` without
running them.  A fast test checks that no two configs describe the same
run, so each run has one committed config and one report.
"""

import contextlib
import io
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from avds import density, harness
from avds.cli import _diagnose_config, load_experiment_config, main

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "configs").glob("*.json"))
# About 10 s, 13 s, 4 s and 19 s a cold run on one BLAS thread (2-core x86-64).
SLOW = {"blocks_lines", "blocks_squares", "figure1_stated", "flip_test"}
DIAGNOSE_REL_TOL = 1e-12
# Regenerated under OpenBLAS's SkylakeX, Haswell, Sandybridge and Nehalem
# kernels, the experiment reports' floats moved by at most 6.3e-11 relative
# (a 132 dB PSNR of the paired config under Haswell), the diagnose rows' by
# at most 1.1e-15.
EXPERIMENT_REL_TOL = 1e-9


def _argv(path: Path) -> list:
    if path.stem.startswith("diagnose"):
        return ["diagnose", "--config", str(path)]
    return ["experiment", "--config", str(path), "--no-timing"]


def _cold_run(argv) -> str:
    """stdout of `avds.cli.main(argv)`, with the block-term and support-model memos cleared."""
    density._norm_terms.cache_clear()
    harness.signal_distribution.cache_clear()
    return _run(argv)


def _run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def _same(new, old, rel_tol: float, exact=(), where=()):
    """`new` equals `old`, floats within `rel_tol`; keys in `exact` compare exactly."""
    if isinstance(old, dict):
        assert isinstance(new, dict) and new.keys() == old.keys(), where
        for key in old:
            _same(new[key], old[key], 0.0 if key in exact else rel_tol, exact, where + (key,))
    elif isinstance(old, list):
        assert isinstance(new, list) and len(new) == len(old), where
        for i, (a, b) in enumerate(zip(new, old)):
            _same(a, b, rel_tol, exact, where + (i,))
    elif isinstance(old, float) and rel_tol:
        assert isinstance(new, float), where
        assert math.isclose(new, old, rel_tol=rel_tol, abs_tol=0.0), (where, new, old)
    else:
        assert type(new) is type(old) and new == old, (where, new, old)


def _matches_committed(stem: str, text: str):
    want = json.loads((ROOT / "reports" / f"{stem}.json").read_text())
    if stem.startswith("diagnose"):
        _same(json.loads(text), want, DIAGNOSE_REL_TOL, exact=("m", "gram_tail_prob"))
    else:
        _same(json.loads(text), want, EXPERIMENT_REL_TOL, exact=("config",))


@pytest.mark.parametrize(
    "path",
    [pytest.param(p, marks=pytest.mark.slow) if p.stem in SLOW else p for p in CONFIGS],
    ids=lambda p: p.stem,
)
def test_committed_report_matches_a_fresh_run(path, tmp_path):
    stem, raw = path.stem, json.loads(path.read_text())
    assert (ROOT / "reports" / f"{stem}.json").exists(), f"{stem} has no committed report"
    text = _cold_run(_argv(path))
    if stem in SLOW:
        short = tmp_path / f"{stem}.json"
        short.write_text(json.dumps(dict(raw, trials=2)))
        full, two = json.loads(text), json.loads(_run(_argv(short)))
        assert two["psnr_db"] == {kind: psnr[:2] for kind, psnr in full["psnr_db"].items()}
        for key in ("covered_fraction", "density_info"):  # no trial draws them
            assert two[key] == full[key], key
    else:
        assert _run(_argv(path)) == text
    if stem.startswith("diagnose"):
        rows = json.loads(text)
        assert len(rows) == len(raw["m"])
        for m, row in zip(raw["m"], rows):
            alone = tmp_path / f"{stem}-{m}.json"
            alone.write_text(json.dumps(dict(raw, m=[m])))
            assert json.loads(_cold_run(_argv(alone))) == [row], m
    if stem.startswith("paired"):
        psnr = list(json.loads(text)["psnr_db"].values())
        assert len(psnr) > 1 and len(psnr[0]) == raw["trials"]
        assert all(p == psnr[0] for p in psnr[1:])
    _matches_committed(stem, text)


def _run_key(path: Path) -> str:
    """The run a config asks for: its command and described config, and a
    diagnose config's budgets and epsilon."""
    if path.stem.startswith("diagnose"):
        cfg, budgets, epsilon = _diagnose_config(str(path))
        return json.dumps(["diagnose", cfg.describe(), budgets, epsilon], sort_keys=True)
    return json.dumps(["experiment", load_experiment_config(str(path)).describe()], sort_keys=True)


def test_no_two_configs_describe_the_same_run():
    seen: dict = {}
    for path in CONFIGS:
        key = _run_key(path)
        assert key not in seen, f"{path.stem} runs what {seen[key]} runs"
        seen[key] = path.stem


def _openblas_dynamic_arch() -> bool:
    """numpy links OpenBLAS built with DYNAMIC_ARCH on x86-64, so its kernel can be chosen."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return False
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # an older numpy has no dict mode
        return False
    return "openblas" in blas.get("name", "") and "DYNAMIC_ARCH" in blas.get(
        "openblas configuration", ""
    )


@pytest.mark.slow
@pytest.mark.skipif(not _openblas_dynamic_arch(), reason="needs OpenBLAS with DYNAMIC_ARCH")
@pytest.mark.parametrize("path", [p for p in CONFIGS if p.stem not in SLOW], ids=lambda p: p.stem)
def test_committed_report_matches_under_sandybridge_kernels(path):
    env = dict(os.environ, OPENBLAS_CORETYPE="Sandybridge")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "avds.cli", *_argv(path)]
    text = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True).stdout
    _matches_committed(path.stem, text)
