"""2D Fourier transforms and the magnitude-replacement projection.

Convention: forward transform is unnormalized, inverse carries the
1/(W*H) factor, so inverse(forward(g)) == g. The DC sample sits at
index (0, 0); any fftshift is a display concern handled by the CLI.

The transforms and impose_magnitude take an optional `out`, a complex128
array of the result's shape that must not overlap an input: the result is
written there and `out` is returned, with the same bits as a call that
allocates it.
"""

from __future__ import annotations

import numpy as np

from .grids import as_complex_field, as_magnitude, check_same_shape

# Below this modulus s/|s| loses precision (subnormal |s|) or is 0/0.
_SMALLEST_NORMAL = np.finfo(np.float64).tiny


def forward_transform(field, *, out=None) -> np.ndarray:
    """Unnormalized forward DFT of a complex field."""
    return np.fft.fft2(as_complex_field(field), out=out)


def inverse_transform(spectrum, *, out=None) -> np.ndarray:
    """Inverse DFT, normalized so that inverse(forward(g)) == g.

    The two 1D passes are ifft2's own, in its order, the second in place.
    ifft2(out=) would be wrong: numpy 2.4.6's ifft2 passes out=None to its
    1D passes, so it returns a new array and never writes `out`.
    """
    out = np.fft.ifft(as_complex_field(spectrum), axis=-1, out=out)
    return np.fft.ifft(out, axis=-2, out=out)


def magnitude_of(spectrum) -> np.ndarray:
    """Pointwise modulus of a spectrum."""
    return np.abs(as_complex_field(spectrum))


def impose_magnitude(spectrum, target, *, out=None, modulus=None) -> np.ndarray:
    """Replace the spectrum's magnitude with `target`, keeping its phase.

    Each sample s becomes target * s/|s|: the unit phasor is formed first,
    so no intermediate target/|s| can overflow. Samples whose modulus is
    zero, subnormal or overflows to inf take target * exp(i*angle(s))
    instead, where s/|s| would be undefined or inexact. Zero-magnitude
    samples have undefined phase; they are assigned phase 0, i.e. the
    output there is exactly target + 0j.

    A caller that already holds np.abs(spectrum) passes it as `modulus`, of
    the spectrum's shape; it is read, never written.
    """
    s = as_complex_field(spectrum)
    check_same_shape(s, target, s if modulus is None else modulus)
    t = as_magnitude(target, "target magnitude")
    mod = np.abs(s) if modulus is None else modulus
    regular = mod.min() >= _SMALLEST_NORMAL and mod.max() < np.inf
    if not regular:
        odd = ~((mod >= _SMALLEST_NORMAL) & (mod < np.inf))
        # Phasor 0 there, overwritten below.
        mod = np.where(odd, np.inf, mod)
    if out is None:
        out = np.empty_like(s)
    np.divide(s.real, mod, out=out.real)
    np.divide(s.imag, mod, out=out.imag)
    out.real *= t
    out.imag *= t
    if not regular:
        # np.angle(0) == 0, which is exactly the zero-phase convention.
        out[odd] = t[odd] * np.exp(1j * np.angle(s[odd]))
    return out
