"""Grid helpers shared by all modules.

Fields are 2D numpy arrays, row-major, complex128 (or float64 for real
data such as magnitudes). Support masks are 2D boolean arrays.
"""

from __future__ import annotations

from numbers import Integral, Real

import numpy as np


def as_complex_field(a) -> np.ndarray:
    """Validate and return a 2D complex128 field (at least 2x2, all finite)."""
    f = np.asarray(a, dtype=np.complex128)
    if f.ndim != 2 or f.shape[0] < 2 or f.shape[1] < 2:
        raise ValueError(f"field must be 2D with both sides >= 2, got shape {f.shape}")
    if not np.all(np.isfinite(f)):
        raise ValueError("field contains non-finite samples")
    return f


def as_mask(a) -> np.ndarray:
    """Validate and return a 2D boolean support mask with at least one true pixel."""
    m = np.asarray(a)
    if m.dtype != np.bool_:
        m = m.astype(bool)
    if m.ndim != 2:
        raise ValueError(f"mask must be 2D, got shape {m.shape}")
    if not m.any():
        raise ValueError("mask has no true pixels")
    return m


def l2_norm(a) -> float:
    """Euclidean norm of all samples of a real or complex array.

    A ufunc reduction rather than numpy's norm, whose BLAS dot runs on
    every core for large arrays (oversubscribing parallel sweep workers)
    and rounds according to the BLAS kernel and thread count. This result
    depends on neither.
    """
    a = np.asarray(a)
    if np.iscomplexobj(a):
        return float(np.sqrt(np.sum(a.real * a.real) + np.sum(a.imag * a.imag)))
    return float(np.sqrt(np.sum(a * a)))


def check_number(name: str, value, integer: bool = False) -> None:
    """Raise ValueError unless `value` is a real number (an integer if
    `integer`). A bool is neither: a setting is never a flag."""
    if isinstance(value, bool) or not isinstance(value, Integral if integer else Real):
        kind = "an integer" if integer else "a real number"
        raise ValueError(f"{name} must be {kind}, got {value!r}")


def check_same_shape(*arrays) -> None:
    shapes = {np.asarray(a).shape for a in arrays}
    if len(shapes) > 1:
        raise ValueError(f"shape mismatch: {sorted(shapes)}")


def is_centrosymmetric(mask: np.ndarray) -> bool:
    """True if mask(x, y) == mask(W-1-x, H-1-y) for every pixel."""
    m = as_mask(mask)
    return bool(np.array_equal(m, m[::-1, ::-1]))


def bounding_box(mask: np.ndarray) -> tuple[int, int, int, int]:
    """Inclusive (x0, y0, x1, y1) bounding box of the true region."""
    m = as_mask(mask)
    rows = np.flatnonzero(m.any(axis=1))
    cols = np.flatnonzero(m.any(axis=0))
    return int(cols[0]), int(rows[0]), int(cols[-1]), int(rows[-1])
