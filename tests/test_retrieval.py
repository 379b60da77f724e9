import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsepr import retrieval, sparsity
from sparsepr.experiment import binary_phase_phantom, gray_phase_phantom, make_support, PhantomSpec
from sparsepr.fourier import forward_transform, magnitude_of
from sparsepr.grids import SettingError
from sparsepr.retrieval import (
    RetrievalConfig,
    hio_update,
    random_phase_init,
    run_hio,
    run_sparse_hio,
    zero_outside_support,
)
from sparsepr.sparsity import PenaltySpec


def small_problem(image_size=32, support_size=12, pattern_seed=3):
    spec = PhantomSpec(image_size=image_size, support_size=support_size,
                       pattern_seed=pattern_seed)
    truth = binary_phase_phantom(spec)
    mask = make_support(image_size, support_size)
    magnitude = magnitude_of(forward_transform(truth))
    return truth, mask, magnitude


# ------------------------------------------------------------ initialization

def test_random_phase_init_range_and_determinism():
    a = random_phase_init(16, 12, seed=5)
    b = random_phase_init(16, 12, seed=5)
    c = random_phase_init(16, 12, seed=6)
    assert a.shape == (12, 16)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all((a >= 0) & (a < 2 * np.pi))


def test_random_phase_init_matches_rng_oracle():
    oracle = np.random.default_rng(9).uniform(0, 2 * np.pi, size=(4, 7))
    assert np.array_equal(random_phase_init(7, 4, seed=9), oracle)


# ------------------------------------------------------------ support update

def test_hio_update_matches_pixel_loop():
    rng = np.random.default_rng(0)
    g_prev = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    g_hat = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    mask = rng.random((5, 5)) < 0.5
    mask[0, 0] = True
    beta = 0.9
    out = hio_update(g_prev, g_hat, mask, beta)
    for y in range(5):
        for x in range(5):
            if mask[y, x]:
                assert out[y, x] == g_hat[y, x]
            else:
                assert out[y, x] == g_prev[y, x] - beta * g_hat[y, x]


@pytest.mark.parametrize("dtype", [np.complex128, np.float64])
def test_hio_update_into_out_is_byte_equal_to_the_where_form(dtype):
    rng = np.random.default_rng(1)
    g_prev = rng.normal(size=(6, 7)) + 1j * rng.normal(size=(6, 7))
    g_hat = rng.normal(size=(6, 7)) + 1j * rng.normal(size=(6, 7))
    if dtype == np.float64:
        g_prev, g_hat = g_prev.real.copy(), g_hat.real.copy()
    g_prev[0, :3] = [0.0, -0.0, np.finfo(np.float64).tiny]
    g_hat[1, :3] = [-0.0, 0.0, -5e-324]
    mask = rng.random((6, 7)) < 0.5
    mask[0, 0] = True
    inputs = (g_prev.tobytes(), g_hat.tobytes(), mask.tobytes())
    out = np.empty_like(g_prev)
    assert hio_update(g_prev, g_hat, mask, 0.9, out=out) is out
    where_form = np.where(mask, g_hat, g_prev - 0.9 * g_hat)
    assert out.dtype == where_form.dtype
    assert out.tobytes() == where_form.tobytes()
    assert hio_update(g_prev, g_hat, mask, 0.9).tobytes() == where_form.tobytes()
    assert (g_prev.tobytes(), g_hat.tobytes(), mask.tobytes()) == inputs


def test_hio_update_rejects_bad_beta():
    g = np.zeros((3, 3), dtype=np.complex128)
    mask = np.ones((3, 3), dtype=bool)
    with pytest.raises(ValueError):
        hio_update(g, g, mask, 0.0)
    with pytest.raises(ValueError):
        hio_update(g, g, mask, 1.5)


def test_zero_outside_support():
    f = np.full((4, 4), 2 + 1j)
    mask = np.zeros((4, 4), dtype=bool)
    mask[1:3, 1:3] = True
    out = zero_outside_support(f, mask)
    assert np.array_equal(out[mask], f[mask])
    assert not out[~mask].any()


# ------------------------------------------------------------ config checks

# Every invalid RetrievalConfig field; the error names the field. A bool or
# a fractional number is refused, not run as 1 or truncated.
BAD_CONFIG_FIELDS = [
    ("beta", 0.0), ("beta", -0.5), ("beta", 1.5), ("beta", True), ("beta", "0.9"),
    ("beta", float("nan")), ("n_iterations", 0), ("n_iterations", True),
    ("n_iterations", 2.5), ("n_iterations", 10.0), ("seed", -1), ("seed", True), ("seed", 1.5),
]


def test_config_validation():
    for key, value in BAD_CONFIG_FIELDS:
        with pytest.raises(SettingError, match=key):
            RetrievalConfig(**{key: value})


def test_run_sparse_hio_is_run_hio():
    assert run_sparse_hio is run_hio


@pytest.mark.parametrize("value", [-3, True, 2.5, "2", None])
def test_run_hio_rejects_bad_initial_iterations(value):
    _, mask, magnitude = small_problem()
    with pytest.raises(SettingError, match="initial_iterations"):
        run_hio(magnitude, mask, RetrievalConfig(n_iterations=2), initial_mask=mask,
                initial_iterations=value)


def test_run_hio_rejects_initial_iterations_without_initial_mask():
    _, mask, magnitude = small_problem()
    with pytest.raises(SettingError, match="initial_mask"):
        run_hio(magnitude, mask, RetrievalConfig(n_iterations=2), initial_iterations=1)
    # zero truncated iterations need no mask
    run_hio(magnitude, mask, RetrievalConfig(n_iterations=2), initial_iterations=0)


def test_rejects_negative_magnitude():
    _, mask, magnitude = small_problem()
    magnitude = magnitude.copy()
    magnitude[0, 0] = -1.0
    with pytest.raises(ValueError):
        run_hio(magnitude, mask, RetrievalConfig(n_iterations=1,
                                                 penalty=PenaltySpec(kind="none")))


def test_rejects_non_finite_magnitude():
    _, mask, magnitude = small_problem()
    magnitude = magnitude.copy()
    magnitude[1, 1] = np.inf
    with pytest.raises(ValueError):
        run_hio(magnitude, mask, RetrievalConfig(n_iterations=1,
                                                 penalty=PenaltySpec(kind="none")))


@pytest.mark.parametrize("kind", ["none", "tv"])
def test_rejects_a_mask_with_a_non_finite_sample(kind):
    _, mask, magnitude = small_problem()
    mask = mask.astype(float)
    mask[0, 0] = np.nan  # outside the support
    with pytest.raises(ValueError, match="mask contains non-finite samples"):
        run_hio(magnitude, mask, RetrievalConfig(n_iterations=1, penalty=PenaltySpec(kind=kind)))


def test_rejects_complex_magnitude():
    _, mask, magnitude = small_problem()
    magnitude = magnitude.astype(np.complex128)
    magnitude[1, 1] += 1j
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no ComplexWarning from a cast
        with pytest.raises(ValueError, match="magnitude data must be real"):
            run_hio(magnitude, mask, RetrievalConfig(n_iterations=1,
                                                     penalty=PenaltySpec(kind="none")))


# ------------------------------------------------------------ run behavior

def test_run_hio_deterministic_and_shapes():
    _, mask, magnitude = small_problem()
    cfg = RetrievalConfig(n_iterations=20, seed=4, penalty=PenaltySpec(kind="none"))
    a = run_hio(magnitude, mask, cfg)
    b = run_hio(magnitude, mask, cfg)
    assert np.array_equal(a.final_field, b.final_field)
    assert a.penalty_trace.shape == (20,)
    assert a.fourier_residual_trace.shape == (20,)
    assert a.seed == 4
    assert a.wall_time > 0


def test_final_field_is_zero_outside_support():
    _, mask, magnitude = small_problem()
    cfg = RetrievalConfig(n_iterations=10, penalty=PenaltySpec(kind="none"))
    rep = run_hio(magnitude, mask, cfg)
    assert not rep.final_field[~mask].any()


def test_traces_are_finite_and_sane():
    _, mask, magnitude = small_problem()
    cfg = RetrievalConfig(n_iterations=50, seed=1, penalty=PenaltySpec(kind="none"))
    rep = run_hio(magnitude, mask, cfg)
    assert np.all(np.isfinite(rep.fourier_residual_trace))
    assert np.all(rep.fourier_residual_trace >= 0)
    assert np.all(np.isfinite(rep.penalty_trace))
    assert np.all(rep.penalty_trace >= 0)


def test_seed_changes_trajectory():
    _, mask, magnitude = small_problem()
    reps = [
        run_hio(magnitude, mask,
                RetrievalConfig(n_iterations=10, seed=s, penalty=PenaltySpec(kind="none")))
        for s in (0, 1)
    ]
    assert not np.array_equal(reps[0].final_field, reps[1].final_field)


def test_sparse_run_with_zero_inner_steps_matches_plain():
    _, mask, magnitude = small_problem()
    plain = run_hio(magnitude, mask,
                    RetrievalConfig(n_iterations=15, seed=2,
                                    penalty=PenaltySpec(kind="none")))
    degenerate = run_hio(
        magnitude, mask,
        RetrievalConfig(n_iterations=15, seed=2,
                        penalty=PenaltySpec(kind="tv", n_inner_steps=0)),
    )
    assert np.array_equal(plain.final_field, degenerate.final_field)
    assert np.array_equal(plain.penalty_trace, degenerate.penalty_trace)
    assert np.array_equal(plain.fourier_residual_trace,
                          degenerate.fourier_residual_trace)


def test_sparse_run_deterministic():
    _, mask, magnitude = small_problem()
    cfg = RetrievalConfig(n_iterations=5, seed=7, penalty=PenaltySpec(kind="tv"))
    a = run_hio(magnitude, mask, cfg)
    b = run_hio(magnitude, mask, cfg)
    assert np.array_equal(a.final_field, b.final_field)


def test_huber_engine_runs():
    _, mask, magnitude = small_problem()
    cfg = RetrievalConfig(n_iterations=5, seed=0, penalty=PenaltySpec(kind="huber"))
    rep = run_hio(magnitude, mask, cfg)
    assert np.all(np.isfinite(rep.final_field))
    assert np.all(np.isfinite(rep.penalty_trace))


# ------------------------------------------------------------ truncation schedule

def test_truncation_schedule_noop_when_disabled():
    _, mask, magnitude = small_problem()
    tri = mask.copy()
    tri[mask] = False
    tri[12:18, 12:18] = True
    cfg = RetrievalConfig(n_iterations=8, seed=3, penalty=PenaltySpec(kind="none"))
    plain = run_hio(magnitude, mask, cfg)
    with_mask = run_hio(magnitude, mask, cfg, initial_mask=tri, initial_iterations=0)
    assert np.array_equal(plain.final_field, with_mask.final_field)


def test_truncation_schedule_changes_result():
    _, mask, magnitude = small_problem()
    tri = np.zeros_like(mask)
    tri[12:18, 12:18] = True
    cfg = RetrievalConfig(n_iterations=8, seed=3, penalty=PenaltySpec(kind="none"))
    plain = run_hio(magnitude, mask, cfg)
    truncated = run_hio(magnitude, mask, cfg, initial_mask=tri, initial_iterations=4)
    assert not np.array_equal(plain.final_field, truncated.final_field)
    assert not truncated.final_field[~mask].any()


@pytest.mark.parametrize("kind", ["tv", "huber"])
def test_truncation_schedule_applies_with_a_penalty(kind):
    _, mask, magnitude = small_problem()
    tri = np.zeros_like(mask)
    tri[12:18, 12:18] = True
    cfg = RetrievalConfig(n_iterations=6, seed=3, penalty=PenaltySpec(kind=kind, n_inner_steps=2))
    plain = run_hio(magnitude, mask, cfg)
    truncated = run_hio(magnitude, mask, cfg, initial_mask=tri, initial_iterations=3)
    assert not np.array_equal(plain.final_field, truncated.final_field)
    assert not truncated.final_field[~mask].any()


# ------------------------------------------------------------ numerical blow-up

@pytest.mark.parametrize("kind", ["none", "tv"])
def test_blow_up_stops_at_the_iteration_it_happens(monkeypatch, kind):
    _, mask, magnitude = small_problem()
    real_forward = retrieval.forward_transform
    calls = []

    def forward_with_nan_at_3(field, **kwargs):
        calls.append(1)
        spectrum = real_forward(field, **kwargs)
        if len(calls) == 3:
            spectrum[0, 0] = np.nan
        return spectrum

    monkeypatch.setattr(retrieval, "forward_transform", forward_with_nan_at_3)
    cfg = RetrievalConfig(n_iterations=50, penalty=PenaltySpec(kind=kind, n_inner_steps=2))
    with pytest.raises(FloatingPointError, match="iteration 3 of 50"):
        run_hio(magnitude, mask, cfg)
    assert len(calls) == 3


@pytest.mark.parametrize("kind", ["none", "tv"])
def test_non_finite_penalty_stops_at_the_iteration_it_happens(monkeypatch, kind):
    # a finite field can still have an infinite penalty (its gradient's
    # squares can overflow); the trace would then hold inf, which is not JSON
    _, mask, magnitude = small_problem()
    real_value = retrieval.tv_value
    calls = []

    def value_with_inf_at_4(field, region):
        calls.append(1)
        return np.inf if len(calls) == 4 else real_value(field, region)

    monkeypatch.setattr(retrieval, "tv_value", value_with_inf_at_4)
    cfg = RetrievalConfig(n_iterations=50, penalty=PenaltySpec(kind=kind, n_inner_steps=2))
    with pytest.raises(FloatingPointError, match="non-finite penalty at iteration 4 of 50"):
        run_hio(magnitude, mask, cfg)
    assert len(calls) == 4


@pytest.mark.parametrize("epsilon, overflows", [(1e300, True), (sparsity.EPSILON, False)])
def test_overflow_in_the_descent_stops_the_run(epsilon, overflows):
    # TV's smoothing is epsilon * max|g|: at 1e300 its square overflows in
    # the first descent step; left to numpy's warning (or Python's float
    # power), the run would go on or fail without naming the iteration
    spec = PhantomSpec(image_size=32, support_size=12, kind="gray", pattern_seed=0)
    magnitude = magnitude_of(forward_transform(gray_phase_phantom(spec)))
    cfg = RetrievalConfig(n_iterations=3, penalty=PenaltySpec(kind="tv"))
    with patch.object(sparsity, "EPSILON", epsilon), warnings.catch_warnings():
        warnings.simplefilter("error")
        if overflows:
            with pytest.raises(FloatingPointError, match="in the descent at iteration 1 of 3"):
                run_hio(magnitude, make_support(32, 12), cfg)
        else:
            assert np.isfinite(run_hio(magnitude, make_support(32, 12), cfg).penalty_trace).all()


@pytest.mark.parametrize("target, kind", [("hio_update", "none"), ("sparsity_descent", "tv")])
def test_non_finite_iterate_is_a_numerical_failure(monkeypatch, target, kind):
    # a NaN that the support update or the descent writes into the field is
    # a numerical failure at that iteration, not bad input data
    _, mask, magnitude = small_problem()
    real_step = getattr(retrieval, target)
    calls = []

    def step_with_nan_at_2(*args, **kwargs):
        calls.append(1)
        g = real_step(*args, **kwargs)
        if len(calls) == 2:
            g[mask] = np.nan
        return g

    monkeypatch.setattr(retrieval, target, step_with_nan_at_2)
    cfg = RetrievalConfig(n_iterations=50, penalty=PenaltySpec(kind=kind, n_inner_steps=2))
    with pytest.raises(FloatingPointError, match="non-finite field at iteration 2 of 50"):
        run_hio(magnitude, mask, cfg)
    assert len(calls) == 2


# ------------------------------------------------------------ BLAS independence

_TRACE_SCRIPT = """
import sparsepr as sp
spec = sp.PhantomSpec(image_size=128, support_size=60, pattern_seed=1)
truth = sp.binary_phase_phantom(spec)
mask = sp.make_support(128, 60)
magnitude = sp.magnitude_of(sp.forward_transform(truth))
config = sp.RetrievalConfig(n_iterations=20, seed=0, penalty=sp.PenaltySpec(kind="none"))
report = sp.run_hio(magnitude, mask, config)
metrics = sp.twin_correlations(report.final_field, truth, mask)
print(report.fourier_residual_trace.tobytes().hex())
print(metrics.c_up.hex(), metrics.c_twin.hex())
"""


def test_traces_do_not_depend_on_blas_threads():
    # 128x128 = 16,384 samples, above the 10,000 at which OpenBLAS spreads a
    # dot product over threads; the residual once came from such a dot, and
    # its rounding changed with the thread count
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", _TRACE_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 2


def test_rejects_all_zero_magnitude():
    _, mask, magnitude = small_problem()
    with pytest.raises(ValueError, match="all zero"):
        run_hio(np.zeros_like(magnitude), mask,
                RetrievalConfig(n_iterations=1, penalty=PenaltySpec(kind="none")))


@pytest.mark.parametrize("kind", ["none", "tv", "huber"])
@pytest.mark.parametrize("scale, message", [(1e-300, "norm of 0.0"), (1e152, "norm of inf"),
                                            (0.0, "is all zero")])
def test_magnitude_whose_norm_is_not_a_positive_float_is_bad_data(monkeypatch, kind, scale,
                                                                  message):
    # the residual is divided by the data's norm: squares that underflow to
    # 0 or overflow to inf are refused before the first iteration, quietly
    spec = PhantomSpec(image_size=32, support_size=12, kind="gray", pattern_seed=0)
    magnitude = magnitude_of(forward_transform(gray_phase_phantom(spec)))
    calls = []
    monkeypatch.setattr(retrieval, "inverse_transform", lambda *a, **k: calls.append(1))
    cfg = RetrievalConfig(n_iterations=3, penalty=PenaltySpec(kind=kind))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message) as caught:
            run_hio(magnitude * scale, make_support(32, 12), cfg)
    assert not isinstance(caught.value, SettingError)
    assert calls == []


# ------------------------------------------------------------ loop structure

@pytest.mark.parametrize("kind", ["none", "tv", "huber"])
def test_engines_leave_their_inputs_untouched(kind):
    _, mask, magnitude = small_problem()
    initial = mask.copy()
    initial[mask.nonzero()[0][0]] = False
    inputs = (magnitude.tobytes(), mask.tobytes(), initial.tobytes())
    cfg = RetrievalConfig(n_iterations=4, penalty=PenaltySpec(kind=kind, n_inner_steps=3))
    run_hio(magnitude, mask, cfg, initial_mask=initial, initial_iterations=2)
    assert (magnitude.tobytes(), mask.tobytes(), initial.tobytes()) == inputs


def test_loop_calls_each_stage_by_its_module_name_once_per_iteration(monkeypatch):
    # the stages are looked up on the retrieval module at call time, so a
    # wrapper installed there (as the benchmark's tracer does) sees every call
    _, mask, magnitude = small_problem()
    counts = {}
    stages = ("inverse_transform", "hio_update", "sparsity_descent",
              "forward_transform", "impose_magnitude")
    for name in stages:
        def counted(*args, _real=getattr(retrieval, name), _name=name, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(retrieval, name, counted)
    cfg = RetrievalConfig(n_iterations=3, penalty=PenaltySpec(kind="tv", n_inner_steps=2))
    run_hio(magnitude, mask, cfg)
    assert counts == {name: 3 for name in stages}


@pytest.mark.parametrize("as_window", [False, True], ids=["False-median", "True-median"])
def test_huber_penalty_value_differences_the_window_once(monkeypatch, as_window):
    # one gradient serves select_delta and huber_value, both still called
    # through the retrieval module, and the value keeps its bits
    truth, mask, _ = small_problem()
    mask[mask.nonzero()[0][0], mask.nonzero()[1][0]] = False  # ragged
    spec = PenaltySpec(kind="huber")
    region = sparsity.support_window(mask) if as_window else mask
    expected = sparsity.huber_value(truth, sparsity.select_delta(truth, mask), mask)
    calls = []
    for module, name in [(retrieval, "gradient_of"), (sparsity, "gradient_of"),
                         (retrieval, "select_delta"), (retrieval, "huber_value")]:
        def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    value = retrieval.penalty_value(truth, region, spec)
    assert np.float64(value).tobytes() == np.float64(expected).tobytes()
    assert calls.count("gradient_of") == 1
    assert calls.count("select_delta") == 1
    assert calls.count("huber_value") == 1


# ------------------------------------------------------------ properties

@st.composite
def retrieval_problems(draw):
    """A random complex object on a random rectangular or ragged support,
    its Fourier magnitude, a short run's seed and iteration count, and
    either no truncation schedule or a truncated support (a nonempty
    subset of the support) for some of the first iterations."""
    h, w = draw(st.integers(4, 12)), draw(st.integers(4, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        y0, y1 = sorted(draw(st.lists(st.integers(0, h), min_size=2, max_size=2, unique=True)))
        x0, x1 = sorted(draw(st.lists(st.integers(0, w), min_size=2, max_size=2, unique=True)))
        mask = np.zeros((h, w), dtype=bool)
        mask[y0:y1, x0:x1] = True
    else:
        mask = rng.random((h, w)) < draw(st.floats(0.2, 0.7))
        mask[rng.integers(h), rng.integers(w)] = True
    truth = np.where(mask, rng.normal(size=(h, w)) + 1j * rng.normal(size=(h, w)), 0)
    magnitude = magnitude_of(forward_transform(truth))
    n_iterations = draw(st.integers(1, 6))
    schedule = {}
    if draw(st.booleans()):
        initial = mask & (rng.random((h, w)) < draw(st.floats(0.2, 0.8)))
        ys, xs = mask.nonzero()
        pick = rng.integers(len(ys))
        initial[ys[pick], xs[pick]] = True
        schedule = {"initial_mask": initial,
                    "initial_iterations": draw(st.integers(0, n_iterations))}
    return magnitude, mask, draw(st.integers(0, 2**31)), n_iterations, schedule


def run_engine(magnitude, mask, seed, n_iterations, schedule, penalty):
    cfg = RetrievalConfig(n_iterations=n_iterations, seed=seed, penalty=penalty)
    return run_hio(magnitude, mask, cfg, **schedule)


ENGINE_PENALTIES = [PenaltySpec(kind="none"), PenaltySpec(kind="tv", n_inner_steps=3),
                    PenaltySpec(kind="huber", n_inner_steps=3)]


@settings(max_examples=40, deadline=None)
@given(retrieval_problems(), st.sampled_from(ENGINE_PENALTIES))
def test_final_field_is_zero_outside_support_property(problem, penalty):
    magnitude, mask, seed, n_iterations, schedule = problem
    report = run_engine(magnitude, mask, seed, n_iterations, schedule, penalty)
    assert not report.final_field[~mask].any()


@settings(max_examples=40, deadline=None)
@given(retrieval_problems(), st.sampled_from(ENGINE_PENALTIES))
def test_same_seed_gives_the_same_bits(problem, penalty):
    magnitude, mask, seed, n_iterations, schedule = problem
    first = run_engine(magnitude, mask, seed, n_iterations, schedule, penalty)
    run_engine(magnitude, mask, seed + 1, n_iterations, schedule, penalty)  # state in between
    second = run_engine(magnitude, mask, seed, n_iterations, schedule, penalty)
    for name in ("final_field", "penalty_trace", "fourier_residual_trace"):
        assert getattr(first, name).tobytes() == getattr(second, name).tobytes(), name


@settings(max_examples=40, deadline=None)
@given(retrieval_problems(), st.sampled_from(["tv", "huber"]))
def test_zero_inner_steps_is_plain_hio_property(problem, kind):
    magnitude, mask, seed, n_iterations, schedule = problem
    plain = run_engine(magnitude, mask, seed, n_iterations, schedule, PenaltySpec(kind="none"))
    degenerate = run_engine(magnitude, mask, seed, n_iterations, schedule,
                            PenaltySpec(kind=kind, n_inner_steps=0))
    assert plain.final_field.tobytes() == degenerate.final_field.tobytes()
    assert plain.fourier_residual_trace.tobytes() == degenerate.fourier_residual_trace.tobytes()
    if kind == "tv":  # HIO's penalty trace is TV too
        assert plain.penalty_trace.tobytes() == degenerate.penalty_trace.tobytes()
