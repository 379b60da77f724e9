import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sparsepr.fourier import (
    forward_transform,
    impose_magnitude,
    inverse_transform,
    magnitude_of,
)


def random_field(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def dft_direct(field, sign):
    """O(N^4) direct-sum DFT oracle, unnormalized."""
    h, w = field.shape
    out = np.zeros_like(field, dtype=np.complex128)
    for ky in range(h):
        for kx in range(w):
            acc = 0.0 + 0.0j
            for y in range(h):
                for x in range(w):
                    acc += field[y, x] * np.exp(
                        sign * 2j * np.pi * (kx * x / w + ky * y / h)
                    )
            out[ky, kx] = acc
    return out


def test_delta_gives_flat_spectrum():
    f = np.zeros((4, 4), dtype=np.complex128)
    f[0, 0] = 1.0
    assert np.allclose(forward_transform(f), np.ones((4, 4)), atol=1e-14)


def test_constant_gives_dc_delta():
    n = 6
    spec = forward_transform(np.ones((n, n), dtype=np.complex128))
    expected = np.zeros((n, n), dtype=np.complex128)
    expected[0, 0] = n * n
    assert np.allclose(spec, expected, atol=1e-11)


def test_forward_matches_direct_sum():
    f = random_field((8, 8), 1)
    assert np.max(np.abs(forward_transform(f) - dft_direct(f, -1))) < 1e-10


def test_inverse_matches_direct_sum():
    s = random_field((8, 8), 2)
    oracle = dft_direct(s, +1) / s.size
    assert np.max(np.abs(inverse_transform(s) - oracle)) < 1e-10


@pytest.mark.parametrize("shape", [(5, 7), (16, 16), (128, 128)])
def test_round_trip_identity(shape):
    f = random_field(shape, 3)
    back = inverse_transform(forward_transform(f))
    assert np.max(np.abs(back - f)) < 1e-12 * np.max(np.abs(f))


def test_inverse_of_flat_spectrum_is_delta():
    n = 8
    f = inverse_transform(np.ones((n, n), dtype=np.complex128))
    expected = np.zeros((n, n), dtype=np.complex128)
    expected[0, 0] = 1.0
    assert np.allclose(f, expected, atol=1e-14)


def test_parseval():
    f = random_field((12, 10), 4)
    spec = forward_transform(f)
    lhs = np.sum(np.abs(f) ** 2)
    rhs = np.sum(np.abs(spec) ** 2) / f.size
    assert abs(lhs - rhs) < 1e-10 * lhs


def test_magnitude_pythagorean():
    s = np.full((2, 2), 3 + 4j)
    assert np.allclose(magnitude_of(s), 5.0)


def test_magnitude_of_zero():
    assert np.all(magnitude_of(np.zeros((3, 3), dtype=np.complex128)) == 0)


def test_magnitude_invariant_under_flip_conjugate():
    f = random_field((8, 8), 5)
    twin = np.conj(f[::-1, ::-1])
    m1 = magnitude_of(forward_transform(f))
    m2 = magnitude_of(forward_transform(twin))
    assert np.max(np.abs(m1 - m2)) < 1e-12 * np.max(m1)


def test_impose_magnitude_scales_phasor():
    s = np.full((2, 2), 3 + 4j)
    t = np.full((2, 2), 10.0)
    assert np.allclose(impose_magnitude(s, t), np.full((2, 2), 6 + 8j), atol=1e-13)


def test_impose_magnitude_identity_case():
    s = random_field((6, 6), 6)
    out = impose_magnitude(s, np.abs(s))
    assert np.max(np.abs(out - s)) < 1e-14 * np.max(np.abs(s))


def test_impose_magnitude_zero_sample_gets_zero_phase():
    s = np.zeros((2, 2), dtype=np.complex128)
    t = np.full((2, 2), 5.0)
    out = impose_magnitude(s, t)
    assert np.array_equal(out, np.full((2, 2), 5 + 0j))


def test_impose_magnitude_idempotent():
    s = random_field((7, 5), 7)
    t = np.abs(random_field((7, 5), 8))
    once = impose_magnitude(s, t)
    twice = impose_magnitude(once, t)
    assert np.max(np.abs(twice - once)) <= 1e-15 * max(1.0, np.max(t))


def test_impose_magnitude_hits_target():
    s = random_field((9, 9), 9)
    t = np.abs(random_field((9, 9), 10))
    out = impose_magnitude(s, t)
    assert np.max(np.abs(np.abs(out) - t)) < 1e-12 * np.max(t)


def test_impose_magnitude_shape_mismatch():
    with pytest.raises(ValueError):
        impose_magnitude(random_field((4, 4), 0), np.ones((4, 5)))


@pytest.mark.parametrize("shape", [(1, 4), (4, 1), (4, 5), (16,), (1, 4, 4)])
def test_impose_magnitude_refuses_a_modulus_of_another_shape(shape):
    # a (1, 4) modulus used to broadcast over the 4x4 spectrum
    s = random_field((4, 4), 0)
    modulus = np.abs(s)[:1] if shape == (1, 4) else np.ones(shape)
    with pytest.raises(ValueError, match="shape mismatch"):
        impose_magnitude(s, np.ones((4, 4)), modulus=modulus)


def test_impose_magnitude_refuses_complex_target():
    # the float64 cast used to drop the imaginary part: 1j*t gave all zeros
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="target magnitude must be real"):
            impose_magnitude(random_field((4, 4), 0), 1j * np.ones((4, 4)))


def test_impose_magnitude_subnormal_sample_stays_finite():
    # target/|s| overflows here; the phasor must be formed before scaling.
    s = np.full((2, 2), 3 + 4j)
    s[0, 0] = 5e-324
    t = np.full((2, 2), 1e3)
    out = impose_magnitude(s, t)
    assert out[0, 0] == 1e3 + 0j
    assert np.all(np.isfinite(out))


# Finite components across the whole float range, with zeros, subnormals
# (whose modulus is subnormal or rounds badly) and near-overflow values
# (whose modulus overflows) drawn often.
SPECIAL_COMPONENTS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -3e-320,
                      np.finfo(np.float64).tiny, 1.7e308, -1.6e308]
components = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-10.0, 10.0),
    st.sampled_from(SPECIAL_COMPONENTS),
)


@st.composite
def spectra_and_targets(draw, max_target=1e300):
    shape = (draw(st.integers(2, 6)), draw(st.integers(2, 6)))
    re = draw(hnp.arrays(np.float64, shape, elements=components))
    im = draw(hnp.arrays(np.float64, shape, elements=components))
    target = draw(hnp.arrays(np.float64, shape, elements=st.one_of(
        st.floats(0.0, max_target), st.sampled_from([0.0, 5e-324, 1.0, 1e3]))))
    return re + 1j * im, target


@settings(max_examples=300, deadline=None)
@given(spectra_and_targets())
def test_impose_magnitude_modulus_is_target_within_a_few_ulp(case):
    s, t = case
    out = impose_magnitude(s, t)
    assert np.all(np.abs(np.abs(out) - t) <= 4 * np.spacing(t))


@settings(max_examples=300, deadline=None)
@given(spectra_and_targets(), st.data())
def test_impose_magnitude_zero_modulus_gives_exactly_target(case, data):
    s, t = case
    zero = data.draw(hnp.arrays(np.bool_, s.shape))
    s[zero] = 0
    out = impose_magnitude(s, t)
    # Byte equality also rules out a -0.0 imaginary part.
    assert out[zero].tobytes() == (t[zero] + 0j).tobytes()


@settings(max_examples=300, deadline=None)
@given(spectra_and_targets())
def test_impose_magnitude_phasor_matches_exp_of_angle(case):
    s, _ = case
    phasor = impose_magnitude(s, np.ones(s.shape))
    assert np.max(np.abs(phasor - np.exp(1j * np.angle(s)))) <= 1e-15


@settings(max_examples=300, deadline=None)
@given(spectra_and_targets())
def test_impose_magnitude_leaves_the_spectrum_untouched(case):
    s, t = case
    before = s.tobytes()
    impose_magnitude(s, t)
    assert s.tobytes() == before


@settings(max_examples=300, deadline=None)
@given(spectra_and_targets(max_target=np.finfo(np.float64).max), st.data())
def test_impose_magnitude_output_finite_with_subnormal_samples(case, data):
    s, t = case
    subnormal = data.draw(hnp.arrays(np.bool_, s.shape))
    s[subnormal] = data.draw(st.sampled_from([5e-324, 1e-310 - 2e-320j, -3e-320j]))
    assert np.all(np.isfinite(impose_magnitude(s, t)))


# ------------------------------------------------------------ out= arguments

@settings(max_examples=100, deadline=None)
@given(st.integers(2, 17), st.integers(2, 17), st.integers(0, 2**32 - 1))
def test_transforms_into_out_are_byte_equal(h, w, seed):
    field = random_field((h, w), seed) * 10.0 ** np.random.default_rng(seed).uniform(-100, 100)
    before = field.tobytes()
    for transform, numpy_fn in ((forward_transform, np.fft.fft2), (inverse_transform, np.fft.ifft2)):
        out = np.empty_like(field)
        assert transform(field, out=out) is out
        assert out.tobytes() == transform(field).tobytes() == numpy_fn(field).tobytes()
    assert field.tobytes() == before


@settings(max_examples=300, deadline=None)
@given(spectra_and_targets(), st.data())
def test_impose_magnitude_into_out_with_the_modulus_is_byte_equal(case, data):
    s, t = case
    s[data.draw(hnp.arrays(np.bool_, s.shape))] = 0  # irregular samples too
    modulus = np.abs(s)
    inputs = (s.tobytes(), t.tobytes(), modulus.tobytes())
    out = np.empty_like(s)
    assert impose_magnitude(s, t, out=out, modulus=modulus) is out
    assert out.tobytes() == impose_magnitude(s, t).tobytes()
    assert (s.tobytes(), t.tobytes(), modulus.tobytes()) == inputs
