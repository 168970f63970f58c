import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from avds import tensorio
from avds.cli import load_experiment_config, main, parse_partition, parse_spec
from avds.errors import ConfigError, FormatError
from avds.transforms import Measurement, Sparsity


# ---------------------------------------------------------------- tensor files

def test_tensor_roundtrip_real_and_complex(tmp_path):
    path = str(tmp_path / "t.avds")
    rng = np.random.default_rng(0)
    real = rng.normal(size=(3, 4))
    tensorio.write_tensor(path, real)
    assert np.array_equal(tensorio.read_tensor(path), real)

    cplx = rng.normal(size=(2, 3, 2)) + 1j * rng.normal(size=(2, 3, 2))
    tensorio.write_tensor(path, cplx)
    assert np.array_equal(tensorio.read_tensor(path), cplx)


def test_tensor_header_layout(tmp_path):
    path = str(tmp_path / "t.avds")
    tensorio.write_tensor(path, np.arange(6.0).reshape(2, 3))
    blob = open(path, "rb").read()
    assert blob[:4] == b"AVDS"
    assert blob[4] == 1  # version
    assert blob[5] == 0  # real64
    assert blob[6] == 2  # ndim
    # column-major payload: first value runs down the first column
    payload = np.frombuffer(blob, dtype="<f8", offset=7 + 16)
    assert list(payload[:3]) == [0.0, 3.0, 1.0]


def test_tensor_truncation_reports_offset(tmp_path):
    path = str(tmp_path / "t.avds")
    tensorio.write_tensor(path, np.ones(8))
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[:-5])
    with pytest.raises(FormatError, match="byte"):
        tensorio.read_tensor(path)


@given(
    hnp.arrays(
        dtype=st.sampled_from([np.float64, np.complex128]),
        shape=hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=5),
        elements=st.floats(-1e12, 1e12),
    )
)
@settings(max_examples=40, deadline=None)
def test_tensor_roundtrip_fuzz(tmp_path_factory, arr):
    path = str(tmp_path_factory.mktemp("fuzz") / "t.avds")
    tensorio.write_tensor(path, arr)
    back = tensorio.read_tensor(path)
    assert back.shape == arr.shape
    assert np.array_equal(back, arr)


# ------------------------------------------------------------------------- PGM

def test_pgm_roundtrip_binary(tmp_path):
    path = str(tmp_path / "img.pgm")
    img = np.array([[0.0, 1.0], [1.0, 0.0]])
    tensorio.write_pgm(path, img, maxval=255)
    assert np.array_equal(tensorio.read_pgm(path), img)


def test_pgm_16bit(tmp_path):
    path = str(tmp_path / "img16.pgm")
    img = np.array([[0.0, 1.0], [0.25, 0.5]])
    tensorio.write_pgm(path, img, maxval=65535)
    back = tensorio.read_pgm(path)
    assert back[0, 1] == 1.0
    assert np.max(np.abs(back - img)) <= 1.0 / 65535


def test_pgm_ascii(tmp_path):
    path = str(tmp_path / "a.pgm")
    open(path, "w").write("P2\n# comment\n2 2\n255\n0 255\n255 0\n")
    img = tensorio.read_pgm(path)
    assert np.array_equal(img, [[0.0, 1.0], [1.0, 0.0]])


def test_pgm_truncated(tmp_path):
    path = str(tmp_path / "bad.pgm")
    tensorio.write_pgm(path, np.ones((4, 4)))
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[:-3])
    with pytest.raises(FormatError, match="byte"):
        tensorio.read_pgm(path)


# ----------------------------------------------------------------- spec parsing

def test_parse_spec_variants():
    spec = parse_spec("dft2d:db4_2d_multilevel:64:3")
    assert spec.measurement == Measurement.DFT2D
    assert spec.sparsity == Sparsity.DB4_2D
    assert spec.levels == 3
    spec = parse_spec("dft1d:identity:1024")
    assert spec.dim == 1024
    with pytest.raises(ConfigError):
        parse_spec("nope:identity:8")
    with pytest.raises(ConfigError):
        parse_spec("dft1d:identity")


def test_parse_partition():
    spec = parse_spec("dft2d:identity:8")
    assert parse_partition("lines-v", spec).kind == "vertical_lines"
    assert parse_partition("squares:4", spec).m == 4
    with pytest.raises(ConfigError):
        parse_partition("hex", spec)


# ------------------------------------------------------------------------- CLI

def run_cli(*argv):
    return main(list(argv))


def test_cli_flip_involution(tmp_path):
    v = np.arange(16.0)
    a = str(tmp_path / "v.avds")
    b = str(tmp_path / "vf.avds")
    c = str(tmp_path / "vff.avds")
    tensorio.write_tensor(a, v)
    assert run_cli("flip", "--in", a, "--out", b) == 0
    assert run_cli("flip", "--in", b, "--out", c) == 0
    assert open(a, "rb").read() == open(c, "rb").read()
    assert np.array_equal(tensorio.read_tensor(b), v[::-1])


def test_cli_density_dft_adapted_is_uniform(tmp_path):
    w = str(tmp_path / "w.avds")
    out = str(tmp_path / "pi.avds")
    rng = np.random.default_rng(1)
    omega = rng.uniform(0.01, 0.3, 64)
    tensorio.write_tensor(w, omega)
    assert run_cli(
        "density", "--spec", "dft1d:identity:64", "--weights", w,
        "--kind", "adapted", "--out", out,
    ) == 0
    pi = tensorio.read_tensor(out)
    assert np.max(np.abs(pi - 1 / 64)) <= 1e-12


def test_cli_mask_and_reconstruct_pipeline(tmp_path, capsys):
    dens = str(tmp_path / "pi.avds")
    maskf = str(tmp_path / "mask.avds")
    yf = str(tmp_path / "y.avds")
    xf = str(tmp_path / "xhat.avds")
    assert run_cli(
        "density", "--spec", "dft1d:identity:64", "--kind", "uniform", "--out", dens
    ) == 0
    assert run_cli(
        "mask", "--density", dens, "--m", "32", "--mode", "distinct",
        "--seed", "7", "--out", maskf,
    ) == 0
    # plant a 2-sparse signal, measure through the mask, reconstruct
    from avds.cli import _read_mask
    from avds.recon import MeasurementOp, measure
    from avds.transforms import OperatorSpec

    mask = _read_mask(maskf)
    spec = OperatorSpec(Measurement.DFT1D, Sparsity.IDENTITY, 64)
    x = np.zeros(64)
    x[[5, 40]] = (1.0, -1.0)
    y = measure(x, MeasurementOp(spec, mask))
    tensorio.write_tensor(yf, y)
    assert run_cli(
        "reconstruct", "--spec", "dft1d:identity:64", "--mask", maskf,
        "--input", yf, "--out", xf,
    ) == 0
    xhat = tensorio.read_tensor(xf)
    assert np.linalg.norm(xhat - x) <= 1e-4


def test_cli_mask_determinism(tmp_path):
    dens = str(tmp_path / "pi.avds")
    run_cli("density", "--spec", "dft1d:identity:64", "--kind", "uniform", "--out", dens)
    m1 = str(tmp_path / "m1.avds")
    m2 = str(tmp_path / "m2.avds")
    run_cli("mask", "--density", dens, "--m", "16", "--seed", "3", "--out", m1)
    run_cli("mask", "--density", dens, "--m", "16", "--seed", "3", "--out", m2)
    assert open(m1, "rb").read() == open(m2, "rb").read()


def test_cli_error_class_line(tmp_path, capsys):
    missing = str(tmp_path / "nope.avds")
    code = run_cli("flip", "--in", missing, "--out", str(tmp_path / "o.avds"))
    assert code == 1
    out = capsys.readouterr()
    assert out.out.strip() == "error: FileNotFound"


def test_cli_experiment_config(tmp_path):
    cfg = {
        "schema_version": 1,
        "seed": 9,
        "trials": 2,
        "fraction": 0.5,
        "spec": {"measurement": "dft1d", "sparsity": "identity", "size": 32},
        "weights": {"source": "uniform", "sparsity": 3},
        "densities": ["adapted", "uniform"],
        "solver": {"continuation_steps": 3, "max_inner": 300},
    }
    path = str(tmp_path / "cfg.json")
    json.dump(cfg, open(path, "w"))
    parsed = load_experiment_config(path)
    assert parsed.trials == 2
    assert parsed.resolved_budget == 16
    assert run_cli("experiment", "--config", path, "--no-timing") == 0

    cfg["bogus"] = 1
    json.dump(cfg, open(path, "w"))
    with pytest.raises(ConfigError, match="unknown config keys"):
        load_experiment_config(path)


def test_cli_experiment_reports_are_deterministic(tmp_path, capsys):
    cfg = {
        "schema_version": 1,
        "seed": 5,
        "trials": 2,
        "fraction": 0.6,
        "spec": {"measurement": "dft1d", "sparsity": "haar1d", "size": 32, "levels": 5},
        "weights": {"source": "uniform", "sparsity": 2},
        "densities": ["adapted"],
        "solver": {"continuation_steps": 3, "max_inner": 300},
    }
    path = str(tmp_path / "cfg.json")
    json.dump(cfg, open(path, "w"))
    run_cli("experiment", "--config", path, "--no-timing")
    first = capsys.readouterr().out
    run_cli("experiment", "--config", path, "--no-timing")
    second = capsys.readouterr().out
    assert first == second


def test_cli_estimate_weights_from_corpus(tmp_path):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    rng = np.random.default_rng(2)
    for i in range(6):
        vec = np.zeros(16)
        vec[rng.choice(16, 3, replace=False)] = 1.0
        tensorio.write_tensor(str(corpus_dir / f"{i}.avds"), vec)
    out = str(tmp_path / "w.avds")
    assert run_cli(
        "estimate-weights", "--corpus", str(corpus_dir),
        "--transform", "dft1d:identity:16", "--threshold", "0.5", "--out", out,
    ) == 0
    omega = tensorio.read_tensor(out)
    assert omega.shape == (16,)
    assert np.isclose(omega.sum(), 3.0)


def test_cli_density_pgm_and_mask_pgm(tmp_path):
    out = str(tmp_path / "pi.avds")
    png = str(tmp_path / "pi.pgm")
    assert run_cli(
        "density", "--spec", "dft2d:identity:8", "--kind", "polynomial",
        "--out", out, "--png-log", png,
    ) == 0
    img = tensorio.read_pgm(png)
    assert img.shape == (8, 8)
    maskf = str(tmp_path / "m.avds")
    mpgm = str(tmp_path / "m.pgm")
    assert run_cli(
        "mask", "--density", out, "--fraction", "0.25", "--seed", "1",
        "--spec", "dft2d:identity:8", "--pgm", mpgm, "--out", maskf,
    ) == 0
    img = tensorio.read_pgm(mpgm)
    assert img.sum() == 16  # 25% of 64 cells


_DIAGNOSE_CFG = {
    "schema_version": 1,
    "seed": 1,
    "spec": {"measurement": "dft2d", "sparsity": "identity", "size": 4},
    "weights": {"source": "uniform", "sparsity": 2},
    "m": 4,
    "trials": 3,
}
_EXPERIMENT_CFG = {
    "schema_version": 1,
    "fraction": 0.5,
    "spec": {"measurement": "dft2d", "sparsity": "identity", "size": 4},
    "weights": {"source": "uniform", "sparsity": 2},
}


def _without(cfg, key, inner=None):
    out = json.loads(json.dumps(cfg))
    if inner is None:
        del out[key]
    else:
        del out[key][inner]
    return out


@pytest.mark.parametrize(
    "command,config",
    [
        ("diagnose", _without(_DIAGNOSE_CFG, "spec")),
        ("diagnose", _without(_DIAGNOSE_CFG, "m")),
        ("diagnose", "{not json"),
        ("diagnose", dict(_DIAGNOSE_CFG, m="many")),
        ("diagnose", dict(_DIAGNOSE_CFG, weights=3)),
        ("experiment", _without(_EXPERIMENT_CFG, "weights", "sparsity")),
        ("experiment", _without(_EXPERIMENT_CFG, "spec", "size")),
        ("experiment", dict(_EXPERIMENT_CFG, partition={"kind": "squares"})),
        ("experiment", dict(_EXPERIMENT_CFG, fraction="half")),
        ("experiment", dict(_EXPERIMENT_CFG, solver={"max_inner": "many"})),
        ("experiment", "{not json"),
        ("experiment", [1, 2]),
    ],
    ids=[
        "diagnose-no-spec",
        "diagnose-no-m",
        "diagnose-bad-json",
        "diagnose-m-not-int",
        "diagnose-weights-not-object",
        "experiment-uniform-no-sparsity",
        "experiment-spec-no-size",
        "experiment-squares-no-block-side",
        "experiment-fraction-not-number",
        "experiment-solver-not-int",
        "experiment-bad-json",
        "experiment-not-object",
    ],
)
def test_cli_config_errors_are_config_errors(tmp_path, capsys, command, config):
    path = tmp_path / "cfg.json"
    path.write_text(config if isinstance(config, str) else json.dumps(config))
    assert run_cli(command, "--config", str(path)) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == ["error: ConfigError"]


def test_cli_diagnose_runs(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(_DIAGNOSE_CFG, m=[4, 8])))
    assert run_cli("diagnose", "--config", str(path)) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [row["m"] for row in rows] == [4, 8]
