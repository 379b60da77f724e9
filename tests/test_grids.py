import ast
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import sparsepr
from sparsepr.grids import (SettingError, as_complex_field, as_magnitude, as_mask, bounding_box,
                            check_number, l2_norm)


def is_centrosymmetric(mask) -> bool:
    """True if mask(x, y) == mask(W-1-x, H-1-y) for every pixel of a valid mask."""
    m = as_mask(mask)
    return bool(np.array_equal(m, m[::-1, ::-1]))


def test_rejects_nan():
    f = np.ones((3, 3), dtype=np.complex128)
    f[1, 1] = np.nan
    with pytest.raises(ValueError):
        as_complex_field(f)


# Non-finite values, values whose sum overflows, and ordinary ones.
_PARTS = st.one_of(st.sampled_from([np.nan, np.inf, -np.inf, 1.7e308, -1.7e308,
                                    np.finfo(np.float64).max]),
                   st.floats(-1e3, 1e3))


def _complex(re, im):
    f = np.empty(re.shape, dtype=np.complex128)
    f.real, f.imag = re, im
    return f


_SHAPES = st.shared(st.tuples(st.integers(2, 5), st.integers(2, 5)))


@settings(max_examples=300)
@given(hnp.arrays(np.float64, _SHAPES, elements=_PARTS),
       hnp.arrays(np.float64, _SHAPES, elements=_PARTS))
def test_as_complex_field_rejects_exactly_what_the_full_scan_rejects(re, im):
    zeros = np.zeros(re.shape)
    for field in (_complex(re, im), _complex(re, zeros), _complex(zeros, im), re):
        if np.all(np.isfinite(field)):
            assert as_complex_field(field).tobytes() == field.astype(np.complex128).tobytes()
        else:
            with pytest.raises(ValueError, match="non-finite"):
                as_complex_field(field)


def test_as_complex_field_accepts_finite_samples_whose_sum_overflows():
    f = np.full((3, 3), 1.7e308 - 1.7e308j)
    assert as_complex_field(f) is f


@pytest.mark.parametrize("complex_", [False, True])
def test_l2_norm_into_out_is_byte_equal(complex_):
    rng = np.random.default_rng(7)
    a = rng.normal(size=(9, 7)) * 10.0 ** rng.uniform(-150, 150, size=(9, 7))
    if complex_:
        a = a + 1j * rng.normal(size=(9, 7))
    before = a.tobytes()
    expected = np.float64(l2_norm(a)).tobytes()
    assert np.float64(l2_norm(a, out=np.empty((9, 7)))).tobytes() == expected
    assert a.tobytes() == before
    if not complex_:  # a real array may receive its own squares
        own = a.copy()
        assert np.float64(l2_norm(own, out=own)).tobytes() == expected


def test_rejects_tiny_grid():
    with pytest.raises(ValueError):
        as_complex_field(np.ones((1, 4)))


def test_mask_needs_true_pixel():
    with pytest.raises(ValueError):
        as_mask(np.zeros((3, 3), dtype=bool))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1, np.nan)])
def test_mask_refuses_non_finite_samples(bad):
    m = np.array([[0.0, 2.0], [-1.0, 0.0]], dtype=type(bad))
    assert as_mask(m).tolist() == [[False, True], [True, False]]
    m[0, 0] = bad  # a cast would make it support
    with pytest.raises(ValueError, match="non-finite"):
        as_mask(m)


def test_bounding_box():
    m = np.zeros((6, 8), dtype=bool)
    m[2:4, 3:6] = True
    assert bounding_box(m) == (3, 2, 5, 3)


def _brute_force_centrosymmetric(mask):
    h, w = mask.shape
    for y in range(h):
        for x in range(w):
            if mask[y, x] != mask[h - 1 - y, w - 1 - x]:
                return False
    return True


@settings(max_examples=50)
@given(
    width=st.integers(2, 8),
    height=st.integers(2, 8),
    seed=st.integers(0, 10_000),
)
def test_centrosymmetry_matches_brute_force(width, height, seed):
    rng = np.random.default_rng(seed)
    mask = rng.random((height, width)) < 0.5
    mask[0, 0] = True  # keep at least one true pixel
    assert is_centrosymmetric(mask) == _brute_force_centrosymmetric(mask)


def test_centrosymmetric_positive_case():
    m = np.zeros((8, 8), dtype=bool)
    m[3:5, 3:5] = True
    assert is_centrosymmetric(m)


def _loop_norm(a):
    return float(np.sqrt(sum(abs(complex(v)) ** 2 for v in np.ravel(a))))


@settings(max_examples=50)
@given(
    width=st.integers(1, 40),
    height=st.integers(1, 40),
    complex_=st.booleans(),
    seed=st.integers(0, 10_000),
)
def test_l2_norm_matches_loop_reference(width, height, complex_, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(height, width))
    if complex_:
        a = a + 1j * rng.normal(size=(height, width))
    # summation order differs from the loop: a relative error of a few
    # ulps per term bounds the difference for at most 1,600 terms
    assert l2_norm(a) == pytest.approx(_loop_norm(a), rel=1e-12)


def test_l2_norm_exact_cases():
    assert l2_norm(np.zeros((3, 3), dtype=np.complex128)) == 0.0
    assert l2_norm(np.array([[3.0, 4.0]])) == 5.0
    assert l2_norm(np.array([3 + 4j, 0j])) == 5.0


def test_package_makes_no_blas_call():
    # A BLAS call in the loop runs on every core and oversubscribes parallel
    # sweep workers, and its rounding depends on the BLAS build and thread
    # count; every norm goes through l2_norm instead.
    blas = re.compile(r"linalg|\.dot\(|vdot| @ ")
    sources = sorted(Path(sparsepr.__file__).parent.glob("*.py"))
    assert sources
    hits = [f"{path.name}:{number}: {line.strip()}"
            for path in sources
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if blas.search(line)]
    assert hits == []


def test_experiment_imports_only_grids_from_the_package():
    # experiment reads what a run recorded; it neither runs nor scores one.
    tree = ast.parse((Path(sparsepr.__file__).parent / "experiment.py").read_text())
    modules = [("." * node.level) + (node.module or "") for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)]
    modules += [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    package = [name for name in modules if name.startswith((".", "sparsepr"))]
    assert package == [".grids"]


@pytest.mark.parametrize("value", [3, np.int64(3), -1])
def test_check_number_accepts_integers(value):
    check_number("n", value, integer=True)
    check_number("x", value)


@pytest.mark.parametrize("value", [0.5, np.float64(2.0), 1e308, -5e-324])
def test_check_number_accepts_reals(value):
    check_number("x", value)
    with pytest.raises(SettingError, match="n must be an integer"):
        check_number("n", value, integer=True)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -np.inf])
def test_check_number_rejects_non_finite(value):
    with pytest.raises(SettingError, match="x must be finite"):
        check_number("x", value)
    with pytest.raises(SettingError, match="n must be an integer"):
        check_number("n", value, integer=True)


def test_check_number_accepts_integers_too_large_for_a_float():
    check_number("n", 10**400, integer=True)
    check_number("x", 10**400)


@pytest.mark.parametrize("value", [True, False, np.bool_(True), "1", None, 1j, [1]])
def test_check_number_rejects_non_numbers(value):
    with pytest.raises(SettingError, match="x must be a real number"):
        check_number("x", value)
    with pytest.raises(SettingError, match="n must be an integer"):
        check_number("n", value, integer=True)


_SPECIAL_SAMPLES = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, np.nan, np.inf, -np.inf, 1e308]


@settings(max_examples=200)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=6),
                  elements=st.floats(allow_nan=True, allow_infinity=True)
                  | st.sampled_from(_SPECIAL_SAMPLES)))
@example(np.array([[1.0, -0.0], [np.nan, 2.0]]))
@example(np.array([np.inf, 0.0]))
@example(np.array([0.0, -np.inf]))
@example(np.array([3.0, -5e-324]))
@example(np.array([-0.0]))
def test_as_magnitude_accepts_what_the_two_scan_form_accepts(t):
    two_scan_ok = not (np.any(t < 0) or not np.all(np.isfinite(t)))
    try:
        checked = as_magnitude(t, "t")
        ok = True
    except ValueError as exc:
        assert str(exc) == "t must be nonnegative and finite"
        ok = False
    assert ok == two_scan_ok
    if ok:
        assert checked.dtype == np.float64 and checked.tobytes() == t.tobytes()
