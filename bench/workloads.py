"""The benchmark's workloads: one unit of work each, and its output checks.

A unit is one call of avds's public entry points on inputs derived from
the workload seed:

- `figure1`: `avds.run_experiment` on the config at one trial;
  its items are the (trial, density) reconstructions.
- `diagnose`: the config's density plus `avds.diagnostics` at one budget,
  cycling through the config's budgets; its items are the trials.

Configs are read by `avds.cli.load_experiment_config`.  The diagnose config
is first rewritten in the experiment schema (its diagnose-only keys are
read here), since that loader is the program's one config reader.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import time
import traceback
import warnings
from pathlib import Path

import numpy as np

import avds
import avds.cli
import avds.harness

CONFIGS = {
    "figure1": "configs/figure1_uniform_supports.json",
    "diagnose": "configs/diagnose_hadamard_haar.json",
}
# Units in a run of REFERENCE_S seconds; --seconds scales the count.  The
# work of a run is thus fixed by --seconds and the seed, whatever the
# commit's speed.  On a 2-core x86-64 machine (Python 3.11, numpy 2.4,
# OpenBLAS 0.3.31) a unit takes about 10 s (figure1) and 7 s (diagnose).
REFERENCE_S = 50.0
UNITS = {"figure1": 5, "diagnose": 6}
DIAGNOSE_TRIALS = 50
# --smoke shrinks every operator to this side (and at most 2 levels) and
# the diagnostics to this many trials, to exercise the benchmark in seconds.
SMOKE_SIDE = 16
SMOKE_TRIALS = 4
# relative l2 error at or below this counts as recovered (phase_transition's rule)
RECOVERY_REL_ERR = 1e-3


def unit_seed(seed: int, index: int) -> int:
    """Master seed of unit `index` of a run with workload seed `seed`."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _write_json(path: Path, payload: dict) -> None:
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True))
    os.replace(tmp, path)


def experiment_config(workload: str, root: Path, work_dir: Path, smoke: bool) -> Path:
    """Path of the workload's config in the experiment schema."""
    source = root / CONFIGS[workload]
    if workload != "diagnose" and not smoke:
        return source
    raw = json.loads(source.read_text())
    if workload == "diagnose":
        keys = ("schema_version", "seed", "spec", "partition", "weights")
        raw = {k: raw[k] for k in keys if k in raw}
        # budget and trials are required by the schema; units set their own
        raw.update(budget=1, trials=1)
    if smoke:
        spec = raw["spec"]
        raw["spec"] = dict(spec, size=SMOKE_SIDE, levels=min(spec.get("levels") or 1, 2))
    path = work_dir / f"{workload}{'-smoke' if smoke else ''}.json"
    _write_json(path, raw)
    return path


@dataclasses.dataclass
class Unit:
    index: int
    seed: int
    wall_s: float
    items: int
    failed: int
    digest: str
    unconverged: int = 0
    recovered: int = 0
    psnr_db: list = dataclasses.field(default_factory=list)
    problems: list = dataclasses.field(default_factory=list)


def _error_unit(index, seed, t0, items) -> Unit:
    """Every item of a unit that raised fails; the exception makes the run incorrect."""
    traceback.print_exc()
    problem = "raised " + traceback.format_exc().strip().splitlines()[-1]
    return Unit(index, seed, time.perf_counter() - t0, items, items, "error", problems=[problem])


class Experiment:
    """`avds.run_experiment` at one trial per unit."""

    def __init__(self, config_path: Path) -> None:
        self.cfg = avds.cli.load_experiment_config(str(config_path))
        self.default_seed = self.cfg.master_seed
        spec = self.cfg.spec
        support = max(1, round(self.cfg.weights.sparsity))
        # Signals are +-1 on S entries, so a relative error <= 1e-3 is a
        # PSNR (peak 1) of at least 60 + 10 log10(K / S) dB.
        self.recovered_db = -20 * math.log10(RECOVERY_REL_ERR) + 10 * math.log10(
            spec.dim / support
        )

    def run_unit(self, index: int, seed: int) -> Unit:
        cfg = dataclasses.replace(self.cfg, trials=1, master_seed=seed)
        items = len(cfg.density_kinds)
        t0 = time.perf_counter()
        try:
            with warnings.catch_warnings():
                # the solver's iteration-cap warning; the report counts those solves
                warnings.simplefilter("ignore", RuntimeWarning)
                report = avds.run_experiment(cfg)
        except Exception:
            return _error_unit(index, seed, t0, items)
        wall = time.perf_counter() - t0
        psnrs = [float(v) for kind in cfg.density_kinds for v in report.psnr_db[kind]]
        problems = []
        if len(psnrs) != items:
            problems.append(f"{len(psnrs)} PSNR values for {items} reconstructions")
        return Unit(
            index,
            seed,
            wall,
            items,
            sum(math.isnan(p) for p in psnrs),
            sha256(report.to_json(include_timing=False)),
            unconverged=report.unconverged_solves,
            recovered=sum(p >= self.recovered_db for p in psnrs),
            psnr_db=psnrs,
            problems=problems,
        )


class Diagnose:
    """The config's density plus `avds.diagnostics` at one budget per unit."""

    def __init__(self, config_path: Path, raw: dict, smoke: bool) -> None:
        self.cfg = avds.cli.load_experiment_config(str(config_path))
        self.default_seed = self.cfg.master_seed
        self.kind = raw.get("density", "adapted")
        self.budgets = [int(m) for m in (raw["m"] if isinstance(raw["m"], list) else [raw["m"]])]
        self.trials = SMOKE_TRIALS if smoke else DIAGNOSE_TRIALS
        self.epsilon = float(raw.get("epsilon", 0.01))

    def run_unit(self, index: int, seed: int) -> Unit:
        cfg = self.cfg
        m = self.budgets[index % len(self.budgets)]
        t0 = time.perf_counter()
        try:
            diag = avds.diagnostics(
                cfg.spec,
                cfg.partition,
                avds.harness.build_density(self.kind, cfg, cfg.weights),
                cfg.weights,
                m=m,
                trials=self.trials,
                seed=seed,
                epsilon=self.epsilon,
            )
        except Exception:
            return _error_unit(index, seed, t0, self.trials)
        wall = time.perf_counter() - t0
        scalars = {
            "m": diag.m,
            "mu": diag.mu,
            "gram_tail_prob": diag.gram_tail_prob,
            "threshold_inf1": diag.threshold_inf1,
            "threshold_gram": diag.threshold_gram,
            "m_bound_inf1": diag.m_bound_inf1,
            "m_bound_gram": diag.m_bound_gram,
        }
        lam = [float(v) for v in diag.lambda_samples]
        problems = [f"{k} = {v}" for k, v in scalars.items() if not math.isfinite(v)]
        if not 0.0 <= diag.gram_tail_prob <= 1.0:
            problems.append(f"gram_tail_prob {diag.gram_tail_prob} outside [0, 1]")
        if len(lam) != self.trials:
            problems.append(f"{len(lam)} lambda samples for {self.trials} trials")
        bad = sum(not math.isfinite(v) for v in lam)
        if bad:
            problems.append(f"{bad} non-finite lambda samples")
        digest = sha256(json.dumps(dict(scalars, lambda_samples=lam), sort_keys=True))
        return Unit(index, seed, wall, self.trials, bad, digest, problems=problems)


def load(workload: str, root: Path, work_dir: Path, smoke: bool):
    """Load the workload's config (the set-up a user pays on every run)."""
    path = experiment_config(workload, root, work_dir, smoke)
    if workload == "diagnose":
        raw = json.loads((root / CONFIGS[workload]).read_text())
        return Diagnose(path, raw, smoke)
    return Experiment(path)
