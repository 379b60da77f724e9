"""PRF1 binary field files.

Layout (little-endian, no padding beyond the 3 reserved bytes):

    magic  "PRF1"   4 bytes
    width           u32
    height          u32
    dtype           u8    (0 = real float64, 1 = complex float64 interleaved re,im)
    reserved        3 zero bytes
    payload         row-major samples

The format is bit-exact: write followed by read reproduces the grid
bit-for-bit. The reader is strict: a grid must have at least one sample,
and the file must end where the payload does.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

MAGIC = b"PRF1"
_HEADER = struct.Struct("<4sIIB3x")

DTYPE_REAL = 0
DTYPE_COMPLEX = 1
# dtype code -> the samples' on-disk type, used by the writer and the reader.
_DTYPES = {DTYPE_REAL: np.dtype("<f8"), DTYPE_COMPLEX: np.dtype("<c16")}


class FieldFileError(Exception):
    """Base class for PRF1 read/write failures."""


class BadMagicError(FieldFileError):
    pass


class TruncatedFileError(FieldFileError):
    pass


class UnknownDtypeError(FieldFileError):
    pass


class EmptyGridError(FieldFileError):
    """The header declares a zero width or height."""


class TrailingBytesError(FieldFileError):
    """Bytes follow the payload the header promises."""


def write_field_file(grid, path) -> None:
    """Write a real or complex 2D grid to `path` in PRF1 format."""
    a = np.asarray(grid)
    if a.ndim != 2 or a.size == 0:
        raise ValueError(f"grid must be 2D and non-empty, got shape {a.shape}")
    code = DTYPE_COMPLEX if np.iscomplexobj(a) else DTYPE_REAL
    payload = np.ascontiguousarray(a, dtype=_DTYPES[code])
    height, width = a.shape
    header = _HEADER.pack(MAGIC, width, height, code)
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(payload.tobytes())
    except OSError as exc:
        raise FieldFileError(f"cannot write field file {path}: {exc}") from exc


def read_field_file(path) -> np.ndarray:
    """Read a PRF1 file, returning a float64 or complex128 2D array."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise FieldFileError(f"cannot read field file {path}: {exc}") from exc
    if len(raw) < _HEADER.size:
        raise TruncatedFileError(f"{path}: file shorter than the 16-byte header")
    magic, width, height, code = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise BadMagicError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    dtype = _DTYPES.get(code)
    if dtype is None:
        raise UnknownDtypeError(f"{path}: unknown dtype code {code}")
    if width == 0 or height == 0:
        raise EmptyGridError(f"{path}: header declares an empty {width}x{height} grid")
    expected = width * height * dtype.itemsize
    payload = raw[_HEADER.size:]
    if len(payload) < expected:
        raise TruncatedFileError(
            f"{path}: payload is {len(payload)} bytes, header promises {expected}"
        )
    if len(payload) > expected:
        raise TrailingBytesError(
            f"{path}: {len(payload) - expected} bytes after the {expected}-byte payload"
        )
    data = np.frombuffer(payload, dtype=dtype).reshape(height, width)
    return data.astype(dtype.newbyteorder("="))
