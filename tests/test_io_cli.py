import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from avds import density, harness, tensorio
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


def test_tensor_roundtrip_keeps_non_finite_and_signed_zero_parts(tmp_path):
    path = str(tmp_path / "t.avds")
    cplx = np.array([complex(1, np.inf), complex(2, -0.0), complex(3, np.nan), complex(-0.0, 1)])
    tensorio.write_tensor(path, cplx)
    assert np.array_equal(tensorio.read_tensor(path).view(np.uint64), cplx.view(np.uint64))


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


def _header(*dims) -> bytes:
    return b"AVDS" + bytes([1, 0, len(dims)]) + b"".join(d.to_bytes(8, "little") for d in dims)


@pytest.mark.parametrize(
    "dims,match",
    [
        # 2^32 * 2^32 wraps to 0 in int64: the payload must still be missing
        ((2**32, 2**32), "truncated payload"),
        ((2**63, 2), "truncated payload"),
        ((2**63, 0), "do not describe an array"),
        ((2**62, 0), "do not describe an array"),
    ],
)
def test_tensor_huge_dims_are_format_errors(tmp_path, capsys, dims, match):
    path = tmp_path / "bad.avds"
    path.write_bytes(_header(*dims) + np.ones(4).tobytes())
    with pytest.raises(FormatError, match=match):
        tensorio.read_tensor(str(path))
    assert run_cli("flip", "--in", str(path), "--out", str(tmp_path / "o.avds")) == 1
    assert capsys.readouterr().out.splitlines() == ["error: FormatError"]


def test_tensor_empty_dims_read_back(tmp_path):
    path = tmp_path / "empty.avds"
    path.write_bytes(_header(3, 0))
    assert tensorio.read_tensor(str(path)).shape == (3, 0)


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
    tensorio.write_pgm(path, img)
    assert open(path, "rb").read(11) == b"P5\n2 2\n255\n"
    assert np.array_equal(tensorio.read_pgm(path), img)


def test_pgm_nan_pixel_is_a_format_error(tmp_path):
    # before, the NaN went through an unchecked cast to uint8
    path = tmp_path / "nan.pgm"
    with pytest.raises(FormatError, match="NaN"):
        tensorio.write_pgm(str(path), np.array([[np.nan, 0.5]]))
    assert list(tmp_path.iterdir()) == []


def test_pgm_16bit(tmp_path):
    path = tmp_path / "img16.pgm"
    samples = np.array([[0, 65535], [16384, 32768]], dtype=">u2")
    path.write_bytes(b"P5\n2 2\n65535\n" + samples.tobytes())
    back = tensorio.read_pgm(str(path))
    assert back[0, 1] == 1.0
    assert np.array_equal(back, samples / 65535)


def test_pgm_ascii(tmp_path):
    path = str(tmp_path / "a.pgm")
    open(path, "w").write("P2\n# comment\n2 2\n255\n0 255\n255 0\n")
    img = tensorio.read_pgm(path)
    assert np.array_equal(img, [[0.0, 1.0], [1.0, 0.0]])


@pytest.mark.parametrize(
    "payload, sample",
    [
        (b"P2\n2 2\n255\n0 300 -4 255\n", "sample 1 is 300"),
        (b"P5\n1 1\n300\n" + (1000).to_bytes(2, "big"), "sample 0 is 1000"),
    ],
    ids=["ascii", "binary-16bit"],
)
def test_pgm_sample_outside_maxval(tmp_path, payload, sample):
    # before, these read as [[0, 1.176], [-0.016, 1]] and [[3.33]]
    path = tmp_path / "bad.pgm"
    path.write_bytes(payload)
    with pytest.raises(FormatError, match=sample):
        tensorio.read_pgm(str(path))


def test_pgm_truncated(tmp_path):
    path = str(tmp_path / "bad.pgm")
    tensorio.write_pgm(path, np.ones((4, 4)))
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[:-3])
    with pytest.raises(FormatError, match="byte"):
        tensorio.read_pgm(path)


# ----------------------------------------------------------------- spec parsing

def test_parse_spec_variants():
    spec = parse_spec("dft2d:db4_2d:64:3")
    assert spec.measurement == Measurement.DFT2D
    assert spec.sparsity == Sparsity.DB4_2D
    assert spec.levels == 3
    spec = parse_spec("dft1d:identity:1024")
    assert spec.dim == 1024
    with pytest.raises(ConfigError):
        parse_spec("nope:identity:8")
    with pytest.raises(ConfigError):  # the earlier alias of db4_2d
        parse_spec("dft2d:db4_2d_multilevel:64:3")
    with pytest.raises(ConfigError):
        parse_spec("dft1d:identity")


@pytest.mark.parametrize(
    "text,entry",
    [
        ("singletons", {"kind": "singletons"}),
        ("lines-v", {"kind": "vertical_lines"}),
        ("lines-h", {"kind": "horizontal_lines"}),
        ("squares:2", {"kind": "squares", "block_side": 2}),
    ],
)
def test_cli_and_config_name_one_partition_alike(tmp_path, text, entry):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(_EXPERIMENT_CFG, partition=entry)))
    got = load_experiment_config(str(path)).partition
    want = parse_partition(text, parse_spec("dft2d:identity:4"))
    assert got.kind == want.kind and got.kind.startswith(entry["kind"])
    assert np.array_equal(got.table, want.table)
    assert np.array_equal(got.sizes, want.sizes)


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


# One coherence density per density path, and an IID block mask drawn
# from the last one (expanded with multiplicities) twice.
@pytest.mark.parametrize(
    "spec, partition",
    [
        ("dft2d:tensor_db4:64:3", "lines-v"),
        ("dft2d:tensor_db4:64:3", "squares:8"),
        ("hadamard2d:db4_2d:32:2", "squares:4"),
        ("hadamard2d:db4_2d:32:2", "singletons"),
        ("dft1d:db4_1d:1024", None),
        ("hadamard2d:haar2d:32:2", "squares:4"),
    ],
    ids=[
        "block-line-closed-form", "block-class-table", "block-dense-fallback",
        "isolated-dense-fallback", "isolated-1d-class-table", "iid-block-mask",
    ],
)
def test_cli_coherence_density_paths(tmp_path, spec, partition):
    out = str(tmp_path / "coh.avds")
    part_args = [] if partition is None else ["--partition", partition]
    assert run_cli("density", "--spec", spec, "--kind", "coherence", *part_args, "--out", out) == 0
    pi = tensorio.read_tensor(out)
    assert pi.shape == (parse_partition(partition, parse_spec(spec)).m,)
    assert pi.min() >= 0 and abs(pi.sum() - 1) <= 1e-12
    if spec.startswith("hadamard2d:haar2d"):
        masks = [str(tmp_path / f"mask-{run}.avds") for run in (1, 2)]
        for mask in masks:
            assert run_cli(
                "mask", "--density", out, "--m", "8", "--mode", "iid", "--seed", "3",
                "--spec", spec, *part_args, "--out", mask,
            ) == 0
        assert open(masks[0], "rb").read() == open(masks[1], "rb").read()


def test_cli_error_class_line(tmp_path, capsys):
    missing = str(tmp_path / "nope.avds")
    code = run_cli("flip", "--in", missing, "--out", str(tmp_path / "o.avds"))
    assert code == 1
    out = capsys.readouterr()
    assert out.out.strip() == "error: FileNotFound"


@pytest.mark.parametrize("case", ["config", "weights", "density", "out"])
def test_cli_directory_in_place_of_a_file_is_one_os_error_line(tmp_path, capsys, case):
    # reading a directory, or replacing one by the written file, is an IsADirectoryError
    directory = tmp_path / "dir"
    directory.mkdir()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(_EXPERIMENT_CFG, trials=1, densities=["uniform"])))
    pi = tmp_path / "pi.avds"
    tensorio.write_tensor(str(pi), np.full(16, 1 / 16))
    argv = {
        "config": ["experiment", "--config", str(directory)],
        "weights": [
            "density", "--spec", "dft2d:identity:4", "--kind", "adapted",
            "--weights", str(directory), "--out", str(tmp_path / "o.avds"),
        ],
        "density": ["mask", "--density", str(directory), "--m", "2", "--out", str(pi)],
        "out": ["experiment", "--config", str(cfg), "--out", str(directory)],
    }[case]
    assert run_cli(*argv) == 1
    assert capsys.readouterr().out.splitlines() == ["error: OSError"]
    assert not list(tmp_path.glob(".avds-tmp-*"))


@pytest.mark.parametrize(
    "indices,error",
    [
        ([2, 99999], "DimensionMismatch"),
        ([2, np.nan], "FormatError"),
        ([-1, 2], "FormatError"),
        ([1.5, 2], "FormatError"),
        ([3, 3, 7], "FormatError"),
    ],
    ids=["past-k", "nan", "negative", "fractional", "repeated"],
)
def test_cli_reconstruct_rejects_bad_mask_files(tmp_path, capsys, indices, error):
    maskf = str(tmp_path / "mask.avds")
    yf = str(tmp_path / "y.avds")
    out = tmp_path / "xhat.avds"
    tensorio.write_tensor(maskf, np.stack([np.array(indices, float), np.ones(len(indices))]))
    tensorio.write_tensor(yf, np.ones(len(indices), dtype=complex))
    code = run_cli(
        "reconstruct", "--spec", "dft1d:identity:16", "--mask", maskf,
        "--input", yf, "--out", str(out),
    )
    assert code == 1
    assert capsys.readouterr().out.splitlines() == [f"error: {error}"]
    assert not out.exists()


def test_cli_reconstruct_rejects_a_nan_measurement(tmp_path, capsys):
    maskf = str(tmp_path / "mask.avds")
    yf = str(tmp_path / "y.avds")
    out = tmp_path / "xhat.avds"
    tensorio.write_tensor(maskf, np.stack([np.arange(0.0, 16.0, 2.0), np.ones(8)]))
    tensorio.write_tensor(yf, np.array([1.0, 0.5, np.nan, 0.0, 2.0, 1.0, 0.0, 0.25]))
    code = run_cli(
        "reconstruct", "--spec", "hadamard2d:haar2d:4:1", "--mask", maskf,
        "--input", yf, "--out", str(out),
    )
    assert code == 1
    assert capsys.readouterr().out.splitlines() == ["error: UnsupportedSolver"]
    assert not out.exists()


def test_cli_mask_rejects_a_nan_density(tmp_path, capsys):
    dens = str(tmp_path / "pi.avds")
    out = tmp_path / "mask.avds"
    tensorio.write_tensor(dens, np.array([0.5, np.nan, 0.25, 0.25]))
    assert run_cli("mask", "--density", dens, "--m", "2", "--out", str(out)) == 1
    assert capsys.readouterr().out.splitlines() == ["error: InvalidSpec"]
    assert not out.exists()


@pytest.mark.parametrize("fraction", ["-0.5", "0", "1.5", "nan"])
def test_cli_mask_rejects_a_fraction_outside_the_unit_interval(tmp_path, capsys, fraction):
    dens = str(tmp_path / "pi.avds")
    out = tmp_path / "mask.avds"
    tensorio.write_tensor(dens, np.full(8, 1 / 8))
    assert run_cli("mask", "--density", dens, "--fraction", fraction, "--out", str(out)) == 1
    assert capsys.readouterr().out.splitlines() == ["error: ConfigError"]
    assert not out.exists()


@pytest.mark.parametrize("entries,partition", [(64, "singletons"), (16, "squares:2")])
def test_cli_mask_checks_the_density_length_first(tmp_path, capsys, entries, partition):
    # K = 16 on hadamard2d:haar2d:4:1, and squares:2 has 4 atoms
    dens = str(tmp_path / "pi.avds")
    out = tmp_path / "mask.avds"
    pgm = tmp_path / "m.pgm"
    tensorio.write_tensor(dens, np.full(entries, 1 / entries))
    code = run_cli(
        "mask", "--density", dens, "--m", "4", "--spec", "hadamard2d:haar2d:4:1",
        "--partition", partition, "--pgm", str(pgm), "--out", str(out),
    )
    assert code == 1
    assert capsys.readouterr().out.splitlines() == ["error: DimensionMismatch"]
    assert not out.exists() and not pgm.exists()


@pytest.mark.parametrize(
    "extra",
    [
        ["--pgm", "m.pgm"],
        ["--spec", "dft1d:identity:16", "--pgm", "m.pgm"],
        ["--partition", "lines-v"],
    ],
    ids=["pgm-without-spec", "pgm-with-1d-spec", "blocks-without-spec"],
)
def test_cli_mask_option_errors_write_nothing(tmp_path, capsys, extra):
    dens = str(tmp_path / "pi.avds")
    out = tmp_path / "mask.avds"
    tensorio.write_tensor(dens, np.full(16, 1 / 16))
    extra = [str(tmp_path / arg) if arg.endswith(".pgm") else arg for arg in extra]
    assert run_cli("mask", "--density", dens, "--m", "4", *extra, "--out", str(out)) == 1
    assert capsys.readouterr().out.splitlines() == ["error: ConfigError"]
    assert not out.exists() and not (tmp_path / "m.pgm").exists()


@pytest.mark.parametrize(
    "spec,partition",
    [("dft1d:identity:64", "singletons"), ("hadamard2d:haar2d:8:1", "lines-v")],
    ids=["1d-spec", "block-partition"],
)
def test_cli_density_png_log_errors_write_nothing(tmp_path, capsys, spec, partition):
    out, png = tmp_path / "d.avds", tmp_path / "d.pgm"
    code = run_cli(
        "density", "--spec", spec, "--kind", "uniform", "--partition", partition,
        "--out", str(out), "--png-log", str(png),
    )
    assert code == 1
    assert capsys.readouterr().out.splitlines() == ["error: ConfigError"]
    assert not out.exists() and not png.exists()


def test_cli_reconstruct_image_out_needs_a_2d_spec(tmp_path, capsys):
    maskf = str(tmp_path / "mask.avds")
    yf = str(tmp_path / "y.avds")
    out, image = tmp_path / "xhat.avds", tmp_path / "xhat.pgm"
    tensorio.write_tensor(maskf, np.stack([np.arange(0.0, 64.0, 2.0), np.ones(32)]))
    tensorio.write_tensor(yf, np.ones(32, dtype=complex))
    code = run_cli(
        "reconstruct", "--spec", "dft1d:identity:64", "--mask", maskf,
        "--input", yf, "--out", str(out), "--image-out", str(image),
    )
    assert code == 1
    assert capsys.readouterr().out.splitlines() == ["error: ConfigError"]
    assert not out.exists() and not image.exists()


@pytest.mark.parametrize("mode", ["iid", "distinct"])
def test_cli_mask_negative_seed_is_one_error_line(tmp_path, capsys, mode):
    dens = str(tmp_path / "pi.avds")
    out = tmp_path / "mask.avds"
    tensorio.write_tensor(dens, np.full(8, 1 / 8))
    code = run_cli(
        "mask", "--density", dens, "--m", "4", "--mode", mode, "--seed", "-1", "--out", str(out)
    )
    assert code == 1
    assert capsys.readouterr().out.splitlines() == ["error: ConfigError"]
    assert not out.exists()


def test_cli_mask_iid_budget_above_the_bound_is_one_error_line(tmp_path, capsys):
    dens = str(tmp_path / "pi.avds")
    out = tmp_path / "mask.avds"
    tensorio.write_tensor(dens, np.full(8, 1 / 8))
    code = run_cli(
        "mask", "--density", dens, "--m", str(10**12), "--mode", "iid", "--out", str(out)
    )
    assert code == 1
    assert capsys.readouterr().out.splitlines() == ["error: InfeasibleBudget"]
    assert not out.exists()


@pytest.mark.parametrize("partition", ["singletons", "lines-v"])
def test_cli_density_wrong_length_weights_are_invalid_weights(tmp_path, capsys, partition):
    w = str(tmp_path / "w.avds")
    out = tmp_path / "pi.avds"
    tensorio.write_tensor(w, np.full(16, 0.5))
    code = run_cli(
        "density", "--spec", "dft2d:haar2d:8", "--weights", w, "--kind", "adapted",
        "--partition", partition, "--out", str(out),
    )
    assert code == 1
    assert capsys.readouterr().out.splitlines() == ["error: InvalidWeights"]
    assert not out.exists()


@pytest.mark.parametrize(
    "square,error",
    [("0", "InvalidPartition"), ("-4", "InvalidPartition"), ("x", "ConfigError")],
)
def test_cli_bad_square_side_is_one_error_line(tmp_path, capsys, square, error):
    out = tmp_path / "pi.avds"
    code = run_cli(
        "density", "--spec", "dft2d:identity:8", "--kind", "coherence",
        "--partition", f"squares:{square}", "--out", str(out),
    )
    assert code == 1
    assert capsys.readouterr().out.splitlines() == [f"error: {error}"]
    assert not out.exists()


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
        ("diagnose", dict(_DIAGNOSE_CFG, epsilon=0)),
        ("diagnose", dict(_DIAGNOSE_CFG, epsilon=-1)),
        ("diagnose", dict(_DIAGNOSE_CFG, trials=2.5)),
        ("diagnose", dict(_DIAGNOSE_CFG, m=[8.7])),
        ("diagnose", dict(_DIAGNOSE_CFG, m=[])),
        ("diagnose", dict(_DIAGNOSE_CFG, m=True)),
        ("diagnose", dict(_DIAGNOSE_CFG, epsilon=True)),
        ("diagnose", dict(_DIAGNOSE_CFG, density=["adapted"])),
        ("experiment", dict(_EXPERIMENT_CFG, trials=2.5)),
        ("experiment", dict(_EXPERIMENT_CFG, trials=True)),
        ("experiment", dict(_EXPERIMENT_CFG, seed=1.5)),
        ("experiment", dict(_EXPERIMENT_CFG, budget=3.5)),
        ("experiment", dict(_EXPERIMENT_CFG, solver={"max_inner": 300.5})),
        ("experiment", dict(_EXPERIMENT_CFG, solver={"inner_tol": False})),
        ("experiment", dict(_EXPERIMENT_CFG, fraction=True)),
        ("experiment", dict(_EXPERIMENT_CFG, densities="adapted")),
        ("experiment", dict(_EXPERIMENT_CFG, densities=[])),
        ("experiment", dict(_EXPERIMENT_CFG, flip="yes")),
        ("experiment", dict(_EXPERIMENT_CFG, spec=dict(_EXPERIMENT_CFG["spec"], size=4.5))),
        ("experiment", dict(_EXPERIMENT_CFG, spec=dict(_EXPERIMENT_CFG["spec"], levels=True))),
        ("experiment", dict(_EXPERIMENT_CFG, partition={"kind": "squares", "block_side": 2.5})),
        ("experiment", dict(_EXPERIMENT_CFG, weights={"source": "uniform", "sparsity": True})),
        ("experiment", dict(_EXPERIMENT_CFG, densities=["adapted", "foo"])),
        ("experiment", dict(_EXPERIMENT_CFG, densities=["uniform", "uniform"])),
        ("diagnose", dict(_DIAGNOSE_CFG, density="foo")),
        ("diagnose", dict(_DIAGNOSE_CFG, trials=10**12)),
        ("experiment", dict(_EXPERIMENT_CFG, trials=10**12)),
        ("experiment", dict(_EXPERIMENT_CFG, partition=dict(kind="vertical_lines", block_side=2))),
        ("experiment", dict(_EXPERIMENT_CFG, partition={"kind": "singletons", "block_side": 2})),
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
        "diagnose-epsilon-zero",
        "diagnose-epsilon-negative",
        "diagnose-trials-not-integral",
        "diagnose-m-not-integral",
        "diagnose-m-empty",
        "diagnose-m-bool",
        "diagnose-epsilon-bool",
        "diagnose-density-not-name",
        "experiment-trials-not-integral",
        "experiment-trials-bool",
        "experiment-seed-not-integral",
        "experiment-budget-not-integral",
        "experiment-solver-not-integral",
        "experiment-solver-bool",
        "experiment-fraction-bool",
        "experiment-densities-not-list",
        "experiment-densities-empty",
        "experiment-flip-not-bool",
        "experiment-size-not-integral",
        "experiment-levels-bool",
        "experiment-block-side-not-integral",
        "experiment-sparsity-bool",
        "experiment-density-unknown",
        "experiment-densities-repeated",
        "diagnose-density-unknown",
        "diagnose-trials-unbounded",
        "experiment-trials-unbounded",
        "experiment-lines-with-block-side",
        "experiment-singletons-with-block-side",
    ],
)
def test_cli_config_errors_are_config_errors(tmp_path, capsys, command, config):
    path = tmp_path / "cfg.json"
    path.write_text(config if isinstance(config, str) else json.dumps(config))
    assert run_cli(command, "--config", str(path)) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == ["error: ConfigError"]


def test_cli_config_square_side_zero_is_invalid_partition(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    cfg = dict(_EXPERIMENT_CFG, partition={"kind": "squares", "block_side": 0})
    path.write_text(json.dumps(cfg))
    assert run_cli("experiment", "--config", str(path)) == 1
    assert capsys.readouterr().out.splitlines() == ["error: InvalidPartition"]


def test_cli_oversized_support_model_is_invalid_weights(tmp_path, capsys):
    # uniform weights at K = 2^16 with S = 2^12 would need a 2.1 GB table
    cfg = dict(
        _EXPERIMENT_CFG,
        spec={"measurement": "hadamard2d", "sparsity": "identity", "size": 256},
        weights={"source": "uniform", "sparsity": 4096},
        densities=["uniform"],
    )
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run_cli("experiment", "--config", str(path)) == 1
    assert capsys.readouterr().out.splitlines() == ["error: InvalidWeights"]


def test_cli_diagnose_runs(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(_DIAGNOSE_CFG, m=[4, 8])))
    assert run_cli("diagnose", "--config", str(path)) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [row["m"] for row in rows] == [4, 8]


def test_cli_diagnose_defaults_to_200_trials_at_epsilon_001(tmp_path, capsys):
    # the CLI and `diagnostics` read one definition of each default
    path, printed = tmp_path / "cfg.json", []
    for cfg in (_without(_DIAGNOSE_CFG, "trials"), dict(_DIAGNOSE_CFG, trials=200, epsilon=0.01)):
        path.write_text(json.dumps(cfg))
        assert run_cli("diagnose", "--config", str(path)) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]


def _counting(monkeypatch, module, name):
    """The calls to `module.name` from here on, one list entry each."""
    calls, real = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_cli_diagnose_builds_its_block_terms_at_most_twice(monkeypatch, capsys):
    # from empty memos, once: the adapted density and the thresholds share
    # one build of the block terms, and the run one support model; the run
    # calls `diagnostics` once per budget, and the memos share the builds
    terms = _counting(monkeypatch, density, "_build_terms")
    models = _counting(monkeypatch, harness, "SupportDistribution")
    calls = _counting(monkeypatch, harness, "diagnostics")
    density._TERMS_MEMO.clear()
    harness._signal_model.cache_clear()
    path = os.path.join(os.path.dirname(__file__), "..", "configs", "diagnose_hadamard_haar.json")
    assert run_cli("diagnose", "--config", path) == 0
    assert len(json.loads(capsys.readouterr().out)) == 4
    assert (len(calls), len(terms), len(models)) == (4, 1, 1)


def test_cli_diagnose_budget_beyond_k_is_one_error_line(tmp_path, capsys):
    # the rows print after the last budget, so an earlier budget's row does not
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(_DIAGNOSE_CFG, m=[4, 17])))
    assert run_cli("diagnose", "--config", str(path)) == 1
    assert capsys.readouterr().out.splitlines() == ["error: InfeasibleBudget"]


def test_cli_import_loads_no_scipy():
    # the runtime needs numpy only; a fresh interpreter sees every import
    import avds

    path = [os.path.dirname(os.path.dirname(avds.__file__)), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = "import sys, avds.cli; print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy'}))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_cli_corpus_vectors_are_read_column_major(tmp_path):
    # a 4 x 4 grid with one coefficient at (row 1, col 3): flat index 3 * 4 + 1
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    grid = np.zeros((4, 4))
    grid[1, 3] = 1.0
    tensorio.write_tensor(str(corpus_dir / "0.avds"), grid)
    out = str(tmp_path / "w.avds")
    assert run_cli(
        "estimate-weights", "--corpus", str(corpus_dir),
        "--transform", "dft2d:identity:4", "--threshold", "0.5", "--out", out,
    ) == 0
    assert np.flatnonzero(tensorio.read_tensor(out)).tolist() == [13]


def _real_input_commands(tmp_path, vector):
    """The three commands that read a real .avds vector, each fed `vector`."""
    path = str(tmp_path / "v.avds")
    tensorio.write_tensor(path, vector)
    cfg = dict(_EXPERIMENT_CFG, weights={"source": "tensor", "path": path})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = str(tmp_path / "out.avds")
    return {
        "density-weights": [
            "density", "--spec", "dft2d:identity:4", "--kind", "adapted",
            "--weights", path, "--out", out,
        ],
        "config-tensor-weights": ["experiment", "--config", str(cfg_path), "--no-timing"],
        "mask-density": ["mask", "--density", path, "--m", "4", "--out", out],
    }


@pytest.mark.parametrize("command", ["density-weights", "config-tensor-weights", "mask-density"])
def test_cli_complex_real_inputs_are_format_errors(tmp_path, capsys, command):
    vector = np.full(16, 1 / 16, dtype=complex)
    vector[5] += 1e-3j
    argv = _real_input_commands(tmp_path, vector)[command]
    assert run_cli(*argv) == 1
    assert capsys.readouterr().out.splitlines() == ["error: FormatError"]


@pytest.mark.parametrize("command", ["density-weights", "config-tensor-weights", "mask-density"])
def test_cli_complex_real_inputs_with_zero_imaginary_part_are_read(tmp_path, command):
    argv = _real_input_commands(tmp_path, np.full(16, 1 / 16, dtype=complex))[command]
    assert run_cli(*argv) == 0


def test_reports_hold_exactly_their_schema_fields(tmp_path, capsys):
    # a new record field reaches a report only through a deliberate schema change
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(_EXPERIMENT_CFG, trials=1)))
    assert run_cli("experiment", "--config", str(path)) == 0
    timed = json.loads(capsys.readouterr().out)
    assert run_cli("experiment", "--config", str(path), "--no-timing") == 0
    untimed = json.loads(capsys.readouterr().out)
    assert timed["schema_version"] == 4
    assert set(timed) == {
        "schema_version", "config", "psnr_db", "psnr_mean", "psnr_sd",
        "covered_fraction", "density_info", "unconverged_solves", "wall_clock_s",
    }
    assert set(timed) - set(untimed) == {"wall_clock_s"}
    assert set(timed["config"]["solver"]) == {
        "continuation_steps", "final_mu_factor", "inner_tol", "max_inner",
    }

    path.write_text(json.dumps(dict(_DIAGNOSE_CFG, m=[4, 8])))
    assert run_cli("diagnose", "--config", str(path)) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 2
    for row in rows:
        assert set(row) == {
            "m", "mu", "lambda_mean", "lambda_max", "gram_tail_prob",
            "threshold_inf1", "threshold_gram", "m_bound_inf1", "m_bound_gram",
        }
