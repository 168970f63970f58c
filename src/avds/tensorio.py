"""Binary tensor files, PGM images and atomic writes.

Tensor layout: magic "AVDS", version byte, dtype byte (0 = real float64,
1 = complex stored as interleaved float64 re/im pairs), ndim byte, dims
as unsigned 64-bit little-endian, then the payload as little-endian
float64 in column-major order.  Round trips are bit exact, complex
entries included: each part keeps its sign, infinity or NaN.
"""

from __future__ import annotations

import math
import os
import struct
import tempfile

import numpy as np

from .errors import FormatError

_MAGIC = b"AVDS"
_VERSION = 1
_DTYPES = ("<f8", "<c16")  # by dtype byte


def atomic_write(path: str, payload: bytes) -> None:
    """Write via a temp file in the same directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".avds-tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def tensor_bytes(array: np.ndarray) -> bytes:
    array = np.asarray(array)
    if array.ndim == 0:
        array = array.reshape(1)
    dtype_byte = int(np.iscomplexobj(array))
    # a "<c16" entry is its "<f8" real and imaginary parts, bit for bit
    payload = np.asarray(array, dtype=_DTYPES[dtype_byte]).flatten(order="F")
    header = _MAGIC + struct.pack("<BBB", _VERSION, dtype_byte, array.ndim)
    header += struct.pack(f"<{array.ndim}Q", *array.shape)
    return header + payload.tobytes()


def write_tensor(path: str, array: np.ndarray) -> None:
    atomic_write(path, tensor_bytes(array))


def read_tensor(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != _MAGIC:
        raise FormatError(f"{path}: bad magic {data[:4]!r}")
    if len(data) < 7:
        raise FormatError(f"{path}: truncated header at byte {len(data)}")
    version, dtype_byte, ndim = struct.unpack("<BBB", data[4:7])
    if version != _VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if dtype_byte not in (0, 1):
        raise FormatError(f"{path}: unknown dtype byte {dtype_byte}")
    offset = 7 + 8 * ndim
    if len(data) < offset:
        raise FormatError(f"{path}: truncated dims at byte {len(data)}")
    dims = struct.unpack(f"<{ndim}Q", data[7:offset])
    count = math.prod(dims)  # Python integers: no int64 wrap-around
    width = 16 if dtype_byte else 8
    expected = offset + count * width
    if len(data) < expected:
        raise FormatError(
            f"{path}: truncated payload at byte {len(data)}, expected {expected}"
        )
    flat = np.frombuffer(data, dtype=_DTYPES[dtype_byte], count=count, offset=offset)
    try:
        return flat.reshape(dims, order="F").copy()
    except ValueError as exc:  # an empty payload whose dims numpy cannot hold
        raise FormatError(f"{path}: dims {dims} do not describe an array") from exc


# ------------------------------------------------------------------------ PGM

def write_pgm(path: str, image: np.ndarray) -> None:
    """8-bit binary PGM (P5) of an image with values in [0, 1]; a NaN pixel
    is a FormatError and writes no file."""
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise FormatError("PGM images must be 2D")
    if np.isnan(image).any():
        raise FormatError("PGM images must not hold NaN pixels")
    quant = np.rint(np.clip(image, 0.0, 1.0) * 255).astype(np.uint8)
    header = f"P5\n{image.shape[1]} {image.shape[0]}\n255\n".encode()
    atomic_write(path, header + quant.tobytes())


def _pgm_tokens(data: bytes, need: int):
    """First `need` whitespace-separated tokens, skipping # comments.

    Returns the tokens and the byte offset one past the final token's
    trailing whitespace byte (where the binary payload starts).
    """
    tokens = []
    pos = 0
    length = len(data)
    while len(tokens) < need:
        while pos < length and data[pos : pos + 1].isspace():
            pos += 1
        if pos < length and data[pos : pos + 1] == b"#":
            while pos < length and data[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
            continue
        start = pos
        while pos < length and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FormatError(f"PGM header truncated at byte {pos}")
        tokens.append(data[start:pos])
    return tokens, pos + 1  # single whitespace byte after maxval


def read_pgm(path: str) -> np.ndarray:
    """Read binary (P5) or ASCII (P2) PGM, scaled to [0, 1]; a sample outside
    [0, maxval] is a FormatError."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] not in (b"P5", b"P2"):
        raise FormatError(f"{path}: not a PGM file (magic {data[:2]!r})")
    binary = data[:2] == b"P5"
    (magic, w_tok, h_tok, max_tok), offset = _pgm_tokens(data, 4)
    try:
        width, height, maxval = int(w_tok), int(h_tok), int(max_tok)
    except ValueError as exc:
        raise FormatError(f"{path}: malformed PGM header") from exc
    if width < 1 or height < 1 or not 1 <= maxval <= 65535:
        raise FormatError(f"{path}: invalid PGM dimensions or maxval")
    count = width * height
    if binary:
        width_bytes = 2 if maxval > 255 else 1
        expected = offset + count * width_bytes
        if len(data) < expected:
            raise FormatError(
                f"{path}: truncated payload at byte {len(data)}, expected {expected}"
            )
        dtype = ">u2" if maxval > 255 else np.uint8
        pixels = np.frombuffer(data, dtype=dtype, count=count, offset=offset)
    else:
        try:
            values = data[offset - 1 :].split()
            pixels = np.array([int(v) for v in values[:count]], dtype=np.int64)
        except ValueError as exc:
            raise FormatError(f"{path}: malformed ASCII PGM payload") from exc
        if pixels.size < count:
            raise FormatError(
                f"{path}: truncated payload, {pixels.size} of {count} samples"
            )
    bad = np.flatnonzero((pixels < 0) | (pixels > maxval))
    if bad.size:
        raise FormatError(f"{path}: sample {bad[0]} is {pixels[bad[0]]}, outside [0, {maxval}]")
    return pixels.reshape(height, width).astype(float) / maxval


def mask_to_pgm(path: str, indices: np.ndarray, side: int) -> None:
    """0/1 image of the sampled positions on the column-major grid."""
    grid = np.zeros(side * side)
    grid[np.asarray(indices, dtype=np.int64)] = 1.0
    write_pgm(path, grid.reshape(side, side).T)


def density_to_pgm(path: str, pi: np.ndarray, side: int) -> None:
    """Log-scale density image (column-major grid) for figure reproduction."""
    if pi.size != side * side:
        raise FormatError("density length does not match the grid")
    grid = pi.reshape(side, side).T  # undo column-major vec
    positive = grid[grid > 0]
    floor = positive.min() if positive.size else 1.0
    logimg = np.log10(np.maximum(grid, floor * 1e-3))
    lo, hi = logimg.min(), logimg.max()
    scale = (logimg - lo) / (hi - lo) if hi > lo else np.zeros_like(logimg)
    write_pgm(path, scale)
