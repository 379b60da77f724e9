import ast
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparsepr
from sparsepr.grids import (as_complex_field, as_mask, bounding_box, check_number,
                            is_centrosymmetric, l2_norm)


def test_rejects_nan():
    f = np.ones((3, 3), dtype=np.complex128)
    f[1, 1] = np.nan
    with pytest.raises(ValueError):
        as_complex_field(f)


def test_rejects_tiny_grid():
    with pytest.raises(ValueError):
        as_complex_field(np.ones((1, 4)))


def test_mask_needs_true_pixel():
    with pytest.raises(ValueError):
        as_mask(np.zeros((3, 3), dtype=bool))


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


@settings(max_examples=50, deadline=None)
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


@settings(max_examples=50, deadline=None)
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


@pytest.mark.parametrize("value", [0.5, np.float64(2.0), float("nan")])
def test_check_number_accepts_reals(value):
    check_number("x", value)
    with pytest.raises(ValueError, match="n must be an integer"):
        check_number("n", value, integer=True)


@pytest.mark.parametrize("value", [True, False, np.bool_(True), "1", None, 1j, [1]])
def test_check_number_rejects_non_numbers(value):
    with pytest.raises(ValueError, match="x must be a real number"):
        check_number("x", value)
    with pytest.raises(ValueError, match="n must be an integer"):
        check_number("n", value, integer=True)
