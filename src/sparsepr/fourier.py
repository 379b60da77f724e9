"""2D Fourier transforms and the magnitude-replacement projection.

Convention: forward transform is unnormalized, inverse carries the
1/(W*H) factor, so inverse(forward(g)) == g. The DC sample sits at
index (0, 0); any fftshift is a display concern handled by the CLI.
"""

from __future__ import annotations

import numpy as np

from .grids import as_complex_field, check_same_shape

# Below this modulus s/|s| loses precision (subnormal |s|) or is 0/0.
_SMALLEST_NORMAL = np.finfo(np.float64).tiny


def forward_transform(field) -> np.ndarray:
    """Unnormalized forward DFT of a complex field."""
    return np.fft.fft2(as_complex_field(field))


def inverse_transform(spectrum) -> np.ndarray:
    """Inverse DFT, normalized so that inverse(forward(g)) == g."""
    return np.fft.ifft2(as_complex_field(spectrum))


def magnitude_of(spectrum) -> np.ndarray:
    """Pointwise modulus of a spectrum."""
    return np.abs(as_complex_field(spectrum))


def impose_magnitude(spectrum, target) -> np.ndarray:
    """Replace the spectrum's magnitude with `target`, keeping its phase.

    Each sample s becomes target * s/|s|: the unit phasor is formed first,
    so no intermediate target/|s| can overflow. Samples whose modulus is
    zero, subnormal or overflows to inf take target * exp(i*angle(s))
    instead, where s/|s| would be undefined or inexact. Zero-magnitude
    samples have undefined phase; they are assigned phase 0, i.e. the
    output there is exactly target + 0j.
    """
    s = as_complex_field(spectrum)
    t = np.asarray(target, dtype=np.float64)
    check_same_shape(s, t)
    if np.any(t < 0) or not np.all(np.isfinite(t)):
        raise ValueError("target magnitude must be nonnegative and finite")
    mod = np.abs(s)
    regular = mod.min() >= _SMALLEST_NORMAL and mod.max() < np.inf
    if not regular:
        odd = ~((mod >= _SMALLEST_NORMAL) & (mod < np.inf))
        # Phasor 0 there, overwritten below. mod is a fresh array; s may
        # be the caller's own and is never written.
        mod[odd] = np.inf
    out = np.empty_like(s)
    np.divide(s.real, mod, out=out.real)
    np.divide(s.imag, mod, out=out.imag)
    out.real *= t
    out.imag *= t
    if not regular:
        # np.angle(0) == 0, which is exactly the zero-phase convention.
        out[odd] = t[odd] * np.exp(1j * np.angle(s[odd]))
    return out
