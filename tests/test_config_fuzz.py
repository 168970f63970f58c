"""Mutated copies of the shipped configs: each loads or fails with one typed error.

A mutant drops keys, changes the type of values or sets them out of range,
anywhere in one of `configs/*.json`.  It must either load, or raise an
`AvdsError` subclass, and then the CLI prints exactly one
`error: <Class>` line.  A mutant may ask for any amount of work, so the
CLI runs a loaded experiment at one trial of at most two continuation
stages of three iterations, and diagnose at two trials per budget.
The 100 mutants are drawn derandomized, so every run tries the same ones.
"""

import dataclasses
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import avds.cli
from avds import errors
from avds.cli import load_experiment_config, main
from avds.errors import AvdsError

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))
ERROR_CLASSES = {
    name
    for name, obj in vars(errors).items()
    if isinstance(obj, type) and issubclass(obj, AvdsError)
}

_OTHER_TYPES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
    st.lists(st.integers(-3, 300), max_size=3),
    st.dictionaries(st.text(max_size=4), st.integers(-3, 3), max_size=2),
)
_OUT_OF_RANGE = st.sampled_from(
    [0, -1, -64, 1, 3, 2**12, 2**40, 10**30, 0.5, -0.5, 1.5, 1e308]
    + [math.nan, math.inf, -math.inf, ""]
)


def _paths(node, prefix=()):
    """Every key path below the root of a JSON tree."""
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def mutants(draw):
    path = draw(st.sampled_from(CONFIGS))
    cfg = json.loads(path.read_text())
    for _ in range(draw(st.integers(1, 3))):
        where = draw(st.sampled_from(list(_paths(cfg))))
        parent = cfg
        for key in where[:-1]:
            parent = parent[key]
        how = draw(st.sampled_from(["drop", "retype", "range"]))
        if how == "drop":
            del parent[where[-1]]
        else:
            parent[where[-1]] = draw(_OTHER_TYPES if how == "retype" else _OUT_OF_RANGE)
        if not list(_paths(cfg)):
            break
    return path.stem, cfg


def _short_experiment(cfg):
    solver = dataclasses.replace(
        cfg.solver,
        continuation_steps=min(cfg.solver.continuation_steps, 2),
        max_inner=min(cfg.solver.max_inner, 3),
    )
    return _real_run_experiment(dataclasses.replace(cfg, trials=1, solver=solver))


def _short_diagnose(cfg, budgets, epsilon):
    return _real_diagnose_rows(dataclasses.replace(cfg, trials=min(cfg.trials, 2)), budgets, epsilon)


_real_run_experiment = avds.cli.run_experiment
_real_diagnose_rows = avds.cli.diagnose_rows


@given(mutants())
@settings(
    max_examples=100,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_mutated_config_loads_or_prints_one_error_class(monkeypatch, capsys, mutant):
    name, cfg = mutant
    monkeypatch.setattr(avds.cli, "run_experiment", _short_experiment)
    monkeypatch.setattr(avds.cli, "diagnose_rows", _short_diagnose)
    command = "diagnose" if name.startswith("diagnose") else "experiment"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{name}.json"
        path.write_text(json.dumps(cfg))
        load_error = None
        if command == "experiment":
            try:
                load_experiment_config(str(path))
            except AvdsError as err:
                load_error = type(err).__name__
        capsys.readouterr()
        code = main([command, "--config", str(path)])
    out = capsys.readouterr().out.splitlines()
    if code == 0:
        assert load_error is None
        return
    assert code == 1 and len(out) == 1 and out[0].startswith("error: "), out
    cls = out[0].removeprefix("error: ")
    assert cls in ERROR_CLASSES, out
    assert load_error in (None, cls)


@pytest.mark.parametrize(
    "path", [p for p in CONFIGS if not p.stem.startswith("diagnose")], ids=lambda p: p.stem
)
def test_shipped_experiment_configs_load(path):
    load_experiment_config(str(path))
