import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsepr.fieldfile import (
    BadMagicError,
    EmptyGridError,
    FieldFileError,
    TrailingBytesError,
    TruncatedFileError,
    UnknownDtypeError,
    read_field_file,
    write_field_file,
)


def test_zero_field_file_size(tmp_path):
    path = tmp_path / "z.prf1"
    write_field_file(np.zeros((2, 2), dtype=np.complex128), path)
    assert path.stat().st_size == 16 + 64


def test_payload_size_512(tmp_path):
    path = tmp_path / "big.prf1"
    write_field_file(np.zeros((512, 512), dtype=np.complex128), path)
    assert path.stat().st_size == 16 + 512 * 512 * 16


def test_complex_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    grid = rng.normal(size=(5, 7)) + 1j * rng.normal(size=(5, 7))
    path = tmp_path / "g.prf1"
    write_field_file(grid, path)
    back = read_field_file(path)
    assert back.dtype == np.complex128
    assert np.array_equal(back, grid)


def test_real_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    grid = rng.normal(size=(4, 9))
    path = tmp_path / "r.prf1"
    write_field_file(grid, path)
    back = read_field_file(path)
    assert back.dtype == np.float64
    assert np.array_equal(back, grid)


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.prf1"
    write_field_file(np.zeros((2, 2)), path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(BadMagicError):
        read_field_file(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "t.prf1"
    write_field_file(np.zeros((4, 4)), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(TruncatedFileError):
        read_field_file(path)


def test_truncated_header(tmp_path):
    path = tmp_path / "h.prf1"
    path.write_bytes(b"PRF1\x02")
    with pytest.raises(TruncatedFileError):
        read_field_file(path)


def test_unknown_dtype(tmp_path):
    path = tmp_path / "d.prf1"
    write_field_file(np.zeros((2, 2)), path)
    raw = bytearray(path.read_bytes())
    raw[12] = 9  # dtype code byte
    path.write_bytes(bytes(raw))
    with pytest.raises(UnknownDtypeError):
        read_field_file(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "tail.prf1"
    write_field_file(np.zeros((3, 3)), path)
    path.write_bytes(path.read_bytes() + b"\0" * 8)
    with pytest.raises(TrailingBytesError):
        read_field_file(path)


@pytest.mark.parametrize("offset", [4, 8], ids=["width", "height"])
def test_zero_side_rejected(tmp_path, offset):
    path = tmp_path / "empty.prf1"
    write_field_file(np.zeros((3, 3)), path)
    raw = bytearray(path.read_bytes())
    raw[offset : offset + 4] = (0).to_bytes(4, "little")
    path.write_bytes(bytes(raw[:16]))  # a zero-size grid has an empty payload
    with pytest.raises(EmptyGridError):
        read_field_file(path)
    path.write_bytes(bytes(raw))  # and the old payload is not a fit either
    with pytest.raises(FieldFileError):
        read_field_file(path)


@pytest.mark.parametrize("offset", [13, 14, 15])
def test_non_zero_reserved_byte_rejected(tmp_path, offset):
    path = tmp_path / "reserved.prf1"
    write_field_file(np.zeros((3, 3)), path)
    raw = bytearray(path.read_bytes())
    raw[offset] = ord("x")
    path.write_bytes(bytes(raw))
    with pytest.raises(FieldFileError, match="reserved"):
        read_field_file(path)


def test_writer_rejects_empty_grid(tmp_path):
    with pytest.raises(ValueError):
        write_field_file(np.zeros((3, 0)), tmp_path / "e.prf1")
    assert not (tmp_path / "e.prf1").exists()


@settings(max_examples=40)
@given(
    width=st.integers(1, 12),
    height=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    complex_=st.booleans(),
)
def test_round_trip_property(width, height, seed, complex_):
    rng = np.random.default_rng(seed)
    grid = rng.normal(size=(height, width))
    if complex_:
        grid = grid + 1j * rng.normal(size=(height, width))
    # not tmp_path_factory: a fixture's repr (addresses, basetemp number)
    # would make the printed examples differ between runs of the same draws
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.prf1"
        write_field_file(grid, path)
        assert np.array_equal(read_field_file(path), grid)
