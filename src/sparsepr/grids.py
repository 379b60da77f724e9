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
    # A NaN or inf sample makes the sum non-finite, so a finite sum proves
    # every sample finite in one reduction. A sum of finite samples can
    # still overflow; only then does the full scan decide.
    with np.errstate(over="ignore", invalid="ignore"):
        finite_sum = np.isfinite(np.sum(f))
    if not finite_sum and not np.all(np.isfinite(f)):
        raise ValueError("field contains non-finite samples")
    return f


def as_mask(a) -> np.ndarray:
    """Validate and return a 2D boolean support mask with at least one true pixel.
    A non-boolean mask must be finite: the cast would make NaN or inf support."""
    m = np.asarray(a)
    if m.dtype != np.bool_:
        if m.dtype.kind in "fc" and not np.isfinite(m).all():
            raise ValueError("mask contains non-finite samples")
        m = m.astype(bool)
    if m.ndim != 2:
        raise ValueError(f"mask must be 2D, got shape {m.shape}")
    if not m.any():
        raise ValueError("mask has no true pixels")
    return m


def l2_norm(a, *, out=None) -> float:
    """Euclidean norm of all samples of a real or complex array.

    A ufunc reduction rather than numpy's norm, whose BLAS dot runs on
    every core for large arrays (oversubscribing parallel sweep workers)
    and rounds according to the BLAS kernel and thread count. This result
    depends on neither. `out`, a real array of a's shape (a real `a`
    itself included), receives the squares instead of a new array.
    """
    a = np.asarray(a)
    if np.iscomplexobj(a):
        return float(np.sqrt(np.sum(np.multiply(a.real, a.real, out=out))
                             + np.sum(np.multiply(a.imag, a.imag, out=out))))
    return float(np.sqrt(np.sum(np.multiply(a, a, out=out))))


class SettingError(ValueError):
    """An invalid setting: a config field, a CLI flag or a sweep key. The CLI
    exits 1 (usage) for it and 2 (data) for any other ValueError."""


def check_number(name: str, value, integer: bool = False) -> None:
    """Raise SettingError unless `value` is a finite real number (an integer
    if `integer`). A bool is neither: a setting is never a flag."""
    if isinstance(value, bool) or not isinstance(value, Integral if integer else Real):
        kind = "an integer" if integer else "a real number"
        raise SettingError(f"{name} must be {kind}, got {value!r}")
    # A NaN fails both comparisons; an int of any size passes them.
    if not -np.inf < value < np.inf:
        raise SettingError(f"{name} must be finite, got {value!r}")


def as_magnitude(a, what: str) -> np.ndarray:
    """Validate and return a nonempty float64 magnitude array, every sample
    nonnegative and finite. Complex input is refused before the cast, which
    would drop its imaginary part. A NaN minimum fails the first comparison."""
    if np.iscomplexobj(a):
        raise ValueError(f"{what} must be real")
    t = np.asarray(a, dtype=np.float64)
    if not (t.min() >= 0 and t.max() < np.inf):
        raise ValueError(f"{what} must be nonnegative and finite")
    return t


def check_same_shape(*arrays) -> None:
    shapes = {np.asarray(a).shape for a in arrays}
    if len(shapes) > 1:
        raise ValueError(f"shape mismatch: {sorted(shapes)}")


def bounding_box(mask: np.ndarray) -> tuple[int, int, int, int]:
    """Inclusive (x0, y0, x1, y1) bounding box of the true region."""
    m = as_mask(mask)
    rows = np.flatnonzero(m.any(axis=1))
    cols = np.flatnonzero(m.any(axis=0))
    return int(cols[0]), int(rows[0]), int(cols[-1]), int(rows[-1])
