import dataclasses
import warnings
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sparsepr import PhantomSpec, binary_phase_phantom, make_support, sparsity
from sparsepr.grids import SettingError
from sparsepr.sparsity import (
    EPSILON,
    EPSILON_FLOOR,
    Gradient,
    PenaltySpec,
    backtracking_step,
    discrete_divergence,
    discrete_gradient,
    gradient_of,
    huber_gradient,
    huber_value,
    select_delta,
    smoothed_tv_value,
    sparsity_descent,
    support_window,
    tv_gradient,
    tv_value,
)


def random_field(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


# ------------------------------------------------------------ stencils

def test_gradient_of_constant_is_zero():
    gx, gy = discrete_gradient(np.full((5, 5), 2 + 1j))
    assert not gx.any() and not gy.any()


def test_gradient_of_ramp():
    f = np.tile(np.arange(4.0), (4, 1)).astype(np.complex128)  # f(x,y) = x
    gx, gy = discrete_gradient(f)
    expected = np.ones((4, 4))
    expected[:, -1] = 0
    assert np.array_equal(gx, expected.astype(np.complex128))
    assert not gy.any()


def test_gradient_matches_direct_loop():
    f = random_field((6, 6), 0)
    gx, gy = discrete_gradient(f)
    for y in range(6):
        for x in range(6):
            ex = f[y, x + 1] - f[y, x] if x < 5 else 0.0
            ey = f[y + 1, x] - f[y, x] if y < 5 else 0.0
            assert gx[y, x] == ex
            assert gy[y, x] == ey


def test_divergence_of_zero_is_zero():
    z = np.zeros((4, 4), dtype=np.complex128)
    assert not discrete_divergence(z, z).any()


def test_adjoint_identity():
    f = random_field((5, 5), 1)
    px = random_field((5, 5), 2)
    py = random_field((5, 5), 3)
    gx, gy = discrete_gradient(f)
    lhs = np.vdot(gx, px) + np.vdot(gy, py)
    rhs = -np.vdot(f, discrete_divergence(px, py))
    scale = np.linalg.norm(f) * (np.linalg.norm(px) + np.linalg.norm(py))
    assert abs(lhs - rhs) < 1e-12 * scale


@pytest.mark.parametrize("shape", [(1, 5), (5, 1), (1, 1)])
def test_adjoint_identity_on_one_wide_grids(shape):
    f = random_field(shape, 4)
    px = random_field(shape, 5)
    py = random_field(shape, 6)
    gx, gy = discrete_gradient(f)
    lhs = np.vdot(gx, px) + np.vdot(gy, py)
    rhs = -np.vdot(f, discrete_divergence(px, py))
    assert abs(lhs - rhs) < 1e-12 * np.linalg.norm(f) * (np.linalg.norm(px) + np.linalg.norm(py))


def test_divergence_of_gradient_of_delta_is_laplacian():
    f = np.zeros((5, 5), dtype=np.complex128)
    f[2, 2] = 1.0
    lap = discrete_divergence(*discrete_gradient(f))
    # interior 5-point Laplacian stencil applied to a delta
    expected = np.zeros((5, 5), dtype=np.complex128)
    expected[2, 2] = -4
    expected[2, 1] = expected[2, 3] = expected[1, 2] = expected[3, 2] = 1
    assert np.array_equal(lap, expected)


# ------------------------------------------------------------ penalty values

def test_tv_of_constant_is_zero():
    assert tv_value(np.full((6, 6), 3 + 2j)) == 0.0


def test_tv_hand_value_2x2():
    # columns [0, 1] in both rows: two unit forward differences
    f = np.array([[0.0, 1.0], [0.0, 1.0]], dtype=np.complex128)
    assert tv_value(f) == pytest.approx(2.0)


def test_huber_of_constant_is_zero():
    assert huber_value(np.full((4, 4), 1j), delta=0.5) == 0.0


def test_huber_single_pixel_at_delta():
    # |grad| == delta at one pixel contributes sqrt(2) - 1
    f = np.zeros((2, 2), dtype=np.complex128)
    delta = 0.7
    f[0, 1] = delta  # gx at (0,0) = delta, all else cancels at edges?
    # gradients: gx(0,0)=delta, gx(1,0)=0, gy(0,1)=-delta
    val = huber_value(f, delta)
    assert val == pytest.approx(2 * (np.sqrt(2) - 1))


def test_huber_asymptotics():
    delta = 1.0
    # build one isolated gradient of chosen magnitude via a 2-pixel edge
    def contribution(mag):
        return np.sqrt(1 + mag**2 / delta**2) - 1

    big = contribution(1e3)
    assert abs(big / 1e3 - 1) < 0.01
    small = contribution(1e-3)
    assert abs(small / (1e-6 / 2) - 1) < 1e-4


@pytest.mark.parametrize("epsilon", [float("nan"), 0.0, -1.0])
def test_smoothed_tv_refuses_an_epsilon_not_above_zero(epsilon):
    # NaN used to give a NaN value, and -1 the value at +1
    f = random_field((5, 5), 1)
    for penalty in (smoothed_tv_value, tv_gradient):
        with pytest.raises(ValueError, match="epsilon must be > 0"):
            penalty(f, epsilon)


@st.composite
def huber_cases(draw):
    """A real or complex field, a delta from 1e-3 to 1e3 times its RMS
    gradient modulus, and a full or ragged mask."""
    h, w = draw(st.integers(2, 9)), draw(st.integers(2, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    field = draw(st.sampled_from([1e-3, 1.0, 1e3])) * (
        rng.normal(size=(h, w)) + 1j * rng.normal(size=(h, w)))
    if draw(st.booleans()):
        field = field.real.copy()
    if draw(st.booleans()):
        field[: draw(st.integers(0, h - 1)), :] = 1.0  # flat rows
    gx, gy = discrete_gradient(field)
    scale = float(np.sqrt(np.mean(np.abs(gx) ** 2 + np.abs(gy) ** 2)))
    delta = scale * 10.0 ** draw(st.floats(-3, 3))
    mask = np.ones((h, w), dtype=bool)
    if draw(st.booleans()):
        mask = rng.random((h, w)) < draw(st.floats(0.2, 0.9))
        mask[rng.integers(h), rng.integers(w)] = True
    return field, delta, mask


@settings(max_examples=300)
@given(huber_cases())
def test_huber_matches_its_textbook_form(case):
    """huber_value and huber_gradient against sum[sqrt(1 + |grad|^2/delta^2) - 1]
    and -(1/delta^2) div(grad / sqrt(1 + |grad|^2/delta^2)).

    The tolerance is 32 ulp of the sum before cancellation. Both value forms
    round terms of size sqrt(1 + |grad|^2/delta^2) >= 1 and subtract 1 per
    pixel, so either is off by a few ulp of sum sqrt(1 + |grad|^2/delta^2)
    (pairwise summation of at most 81 terms adds < 7 ulp); where delta >>
    |grad| that is far more than the value itself, and only such an absolute
    bound holds. Likewise each gradient sample sums four quotients of a few
    ulp each, so it is held to 32 ulp of the sum of their moduli.
    """
    field, delta, mask = case
    ulp = np.finfo(np.float64).eps
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    win = (slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1))
    for region in (mask, None):
        sub, pick = (field[win], mask[win]) if region is not None else (field, slice(None))
        gx, gy = discrete_gradient(sub)
        root = np.sqrt(1.0 + (np.abs(gx) ** 2 + np.abs(gy) ** 2) / delta**2)[pick]
        textbook = float(np.sum(root - 1.0))
        assert abs(huber_value(field, delta, region) - textbook) <= 32 * ulp * np.sum(root)
    gx, gy = discrete_gradient(field)
    root = np.sqrt(1.0 + (np.abs(gx) ** 2 + np.abs(gy) ** 2) / delta**2)
    textbook = -discrete_divergence(gx / root, gy / root) / delta**2
    moduli = _divergence_of_moduli(np.abs(gx) / root, np.abs(gy) / root) / delta**2
    assert np.all(np.abs(huber_gradient(field, delta) - textbook) <= 32 * ulp * moduli)


def _divergence_of_moduli(px, py):
    """Per sample, the sum of the moduli of the terms discrete_divergence adds."""
    out = np.zeros(px.shape)
    out[:, :-1] += px[:, :-1]
    out[:, 1:] += px[:, :-1]
    out[:-1, :] += py[:-1, :]
    out[1:, :] += py[:-1, :]
    return out


# ------------------------------------------------------------ gradients

@pytest.mark.parametrize("direction_seed", range(20))
def test_tv_gradient_matches_finite_differences(direction_seed):
    f = random_field((12, 12), 42)
    eps = 0.05
    grad = tv_gradient(f, eps)
    h = random_field((12, 12), 1000 + direction_seed)
    tau = 1e-6
    fd = (smoothed_tv_value(f + tau * h, eps) - smoothed_tv_value(f - tau * h, eps)) / (2 * tau)
    analytic = np.sum(np.conj(grad) * h).real
    assert abs(fd - analytic) < 1e-5 * abs(fd)


@pytest.mark.parametrize("direction_seed", range(20))
def test_huber_gradient_matches_finite_differences(direction_seed):
    f = random_field((12, 12), 43)
    delta = 0.8
    grad = huber_gradient(f, delta)
    h = random_field((12, 12), 2000 + direction_seed)
    tau = 1e-6
    fd = (huber_value(f + tau * h, delta) - huber_value(f - tau * h, delta)) / (2 * tau)
    analytic = np.sum(np.conj(grad) * h).real
    assert abs(fd - analytic) < 1e-5 * abs(fd)


def test_tv_gradient_of_constant_is_zero():
    assert not tv_gradient(np.full((5, 5), 2.0 + 0j), 1e-3).any()


def test_huber_gradient_of_constant_is_zero():
    assert not huber_gradient(np.full((5, 5), 1 + 1j), 0.5).any()


def test_tv_descent_step_decreases_smoothed_tv():
    f = random_field((10, 10), 44)
    eps = 0.05
    grad = tv_gradient(f, eps)
    before = smoothed_tv_value(f, eps)
    after = smoothed_tv_value(f - 1e-3 * grad, eps)
    assert after < before


def test_huber_matches_quadratic_gradient_for_large_delta():
    f = random_field((8, 8), 45)
    gx, gy = discrete_gradient(f)
    delta = 1e3 * float(np.max(np.sqrt(np.abs(gx) ** 2 + np.abs(gy) ** 2)))
    hub = huber_gradient(f, delta)
    quad = -discrete_divergence(gx, gy) / delta**2
    assert np.max(np.abs(hub - quad)) < 1e-6 * np.max(np.abs(quad))


# ------------------------------------------------------------ delta rule

def test_select_delta_constant_field_fallback():
    f = np.full((6, 6), 1 + 1j)
    assert select_delta(f) == pytest.approx(1e-6)
    assert select_delta(np.zeros((0, 3))) == 1e-6  # no samples at all


def _ramp(steps):
    """A one-row field whose gradient moduli are |steps| and then 0, the far
    edge's; i*step differences have exact moduli."""
    return 1j * np.cumsum([0.0, *steps])[None, :]


def test_select_delta_odd_median():
    assert select_delta(_ramp([4, -1, 5, 2])) == 2.0  # moduli 4 1 5 2 0
    f = _ramp([4, -1, 5, 2, 3])
    ragged = np.array([[True, True, False, True, True, True]])  # drops the 5
    assert select_delta(f, ragged) == select_delta(f, support_window(ragged)) == 2.0


def test_select_delta_even_median_is_middle_mean():
    f = _ramp([4, -1, 5, 2, 3])  # moduli 4 1 5 2 3 0
    assert select_delta(f) == 2.5
    ragged = np.array([[False, True, False, True, True, True]])  # moduli 1 2 3 0
    assert select_delta(f, ragged) == select_delta(f, support_window(ragged)) == 1.5


def test_select_delta_matches_sort_oracle():
    f = random_field((9, 9), 46)
    region = np.zeros((9, 9), dtype=bool)
    region[2:7, 3:8] = True
    gx, gy = discrete_gradient(f[2:7, 3:8])
    mags = np.sort(np.sqrt(np.abs(gx) ** 2 + np.abs(gy) ** 2).ravel())
    n = mags.size
    oracle = (mags[n // 2 - 1] + mags[n // 2]) / 2 if n % 2 == 0 else mags[n // 2]
    assert select_delta(f, region) == oracle


def median_delta_oracle(field, region=None):
    """select_delta as it was composed from np.median, kept as the oracle."""
    if region is None:
        sub, submask = field, None
    else:
        window = region if isinstance(region, sparsity.SupportWindow) else support_window(region)
        sub, submask = field[window.rows, window.cols], window.mask
    mags = np.sqrt(gradient_of(sub).mag_sq)
    mags = mags.ravel() if submask is None else mags[submask]  # None: the whole window
    med = float(np.median(mags))
    if med > 0:
        return med
    peak = float(mags.max()) if mags.size else 0.0
    return 1e-6 * (peak if peak > 0 else 1.0)


@st.composite
def delta_cases(draw):
    """A real or complex field, a region (None, a ragged mask or its
    SupportWindow) and whether to pass the window's Gradient.

    Few levels give duplicated moduli and one level a flat field (the
    fallback); a NaN or inf sample may land anywhere, often in the region."""
    h, w = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.sampled_from([1, 2, 3, 0]))

    def part():
        if levels:
            return rng.integers(0, levels, size=(h, w)).astype(float)
        return draw(st.sampled_from([1e-3, 1.0, 50.0])) * rng.normal(size=(h, w))

    field = part() + 1j * part() if draw(st.booleans()) else part()
    mask = rng.random((h, w)) < draw(st.floats(0.2, 1.0))
    mask[rng.integers(h), rng.integers(w)] = True
    if draw(st.booleans()):
        field[: draw(st.integers(0, h))] = 2.0  # flat rows
    special = draw(st.sampled_from([None, np.nan, np.inf, -np.inf]))
    if special is not None:
        ys, xs = np.nonzero(mask) if draw(st.booleans()) else np.nonzero(np.ones((h, w)))
        i = rng.integers(ys.size)
        field[ys[i], xs[i]] = special
    region = draw(st.sampled_from(["none", "mask", "window"]))
    region = {"none": None, "mask": mask, "window": support_window(mask)}[region]
    return field, region, draw(st.booleans())


@settings(max_examples=300)
@given(delta_cases())
def test_select_delta_is_bit_equal_to_the_median_composition(case):
    field, region, with_grad = case
    expected = median_delta_oracle(field, region)
    if with_grad:
        window = support_window(region) if isinstance(region, np.ndarray) else region
        sub = field if window is None else field[window.rows, window.cols]
        grad = gradient_of(sub)
        before = [a.tobytes() for a in grad]
        got = select_delta(field, region, grad)
        assert [a.tobytes() for a in grad] == before
    else:
        got = select_delta(field, region)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(expected).tobytes()


# ------------------------------------------------------------ line search

def test_backtracking_zero_direction_accepts_t_init():
    f = random_field((4, 4), 47)
    t = backtracking_step(f, np.zeros_like(f), lambda g: float(np.sum(np.abs(g))))
    assert t == sparsity.T_INIT


def test_backtracking_quadratic_hand_case():
    # P(f) = ||f||^2/2 from f = ones along d = -ones:
    # P(0) = 0 <= P(f) - 0.3 * 1 * ||d||^2 = 2 - 1.2, so t = 1 is accepted.
    f = np.ones((2, 2), dtype=np.complex128)
    d = -np.ones_like(f)
    penalty = lambda g: float(np.sum(np.abs(g) ** 2) / 2)  # noqa: E731
    with patch.object(sparsity, "T_INIT", 1.0):
        t = backtracking_step(f, -d, penalty)
    assert t == 1.0


def test_backtracking_accepted_step_never_increases_penalty():
    f = random_field((8, 8), 48)
    eps = 0.05
    d = -tv_gradient(f, eps)
    penalty = lambda g: smoothed_tv_value(g, eps)  # noqa: E731
    t = backtracking_step(f, -d, penalty)
    assert t > 0
    assert penalty(f + t * d) <= penalty(f)


# ------------------------------------------------------------ descent loop

def _step_edge_with_noise(n=32, seed=49):
    rng = np.random.default_rng(seed)
    f = np.ones((n, n), dtype=np.complex128)
    f[:, n // 2 :] = np.exp(2j * np.pi / 3)
    f += 0.1 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return f


def test_descent_none_kind_is_identity():
    f = random_field((6, 6), 50)
    mask = np.ones((6, 6), dtype=bool)
    out = sparsity_descent(f, mask, PenaltySpec(kind="none"))
    assert np.array_equal(out, f)


def test_descent_constant_field_unchanged():
    f = np.full((8, 8), 2 + 3j)
    mask = np.ones((8, 8), dtype=bool)
    out = sparsity_descent(f, mask, PenaltySpec(kind="tv", n_inner_steps=5))
    assert np.array_equal(out, f)


def test_descent_reduces_tv_monotonically():
    f = _step_edge_with_noise()
    mask = np.ones(f.shape, dtype=bool)
    spec = PenaltySpec(kind="tv", n_inner_steps=1)
    values = [tv_value(f, mask)]
    cur = f
    for _ in range(30):
        cur = sparsity_descent(cur, mask, spec)
        values.append(tv_value(cur, mask))
    diffs = np.diff(values)
    assert np.all(diffs <= 1e-9 * values[0])
    assert values[-1] < values[0]


def test_descent_huber_reduces_penalty():
    f = _step_edge_with_noise(seed=51)
    mask = np.ones(f.shape, dtype=bool)
    spec = PenaltySpec(kind="huber", n_inner_steps=10)
    out = sparsity_descent(f, mask, spec)
    # compare at a common delta; the per-step median delta shrinks as the
    # field smooths, which rescales the penalty values themselves
    d0 = select_delta(f, mask)
    assert huber_value(out, d0, mask) < huber_value(f, d0, mask)


def test_descent_never_touches_outside_region():
    f = random_field((16, 16), 52)
    mask = np.zeros((16, 16), dtype=bool)
    mask[4:11, 5:12] = True
    out = sparsity_descent(f, mask, PenaltySpec(kind="tv", n_inner_steps=10))
    assert np.array_equal(out[~mask], f[~mask])
    assert not np.array_equal(out[mask], f[mask])


def test_descent_zero_steps_is_identity():
    f = random_field((8, 8), 53)
    mask = np.ones((8, 8), dtype=bool)
    out = sparsity_descent(f, mask, PenaltySpec(kind="tv", n_inner_steps=0))
    assert np.array_equal(out, f)


def test_descent_accepts_a_support_window():
    f = random_field((16, 16), 54)
    mask = np.zeros((16, 16), dtype=bool)
    mask[4:11, 5:12] = True
    mask[6, 5] = False
    spec = PenaltySpec(kind="huber", n_inner_steps=4)
    by_mask = sparsity_descent(f, mask, spec)
    assert np.array_equal(sparsity_descent(f, support_window(mask), spec), by_mask)
    assert tv_value(by_mask, support_window(mask)) == tv_value(by_mask, mask)
    with pytest.raises(ValueError):
        sparsity_descent(f[:-1], support_window(mask), spec)


def test_a_full_window_is_region_none_bit_for_bit():
    f = random_field((12, 10), 56)
    block = np.zeros(f.shape, dtype=bool)
    block[3:9, 2:8] = True
    window = support_window(block)
    assert window.mask is None
    ragged = block.copy()
    ragged[4, 2] = False
    assert np.array_equal(support_window(ragged).mask, ragged[3:9, 2:8])
    values = (tv_value, select_delta, lambda g, r: smoothed_tv_value(g, 1e-3, r),
              lambda g, r: huber_value(g, 0.7, r))
    for value in values:
        expected = np.float64(value(f[3:9, 2:8], None)).tobytes()
        for region in (block, window):
            assert np.float64(value(f, region)).tobytes() == expected


def test_carried_gradient_gives_the_same_bits():
    f = random_field((12, 10), 55)
    mask = np.zeros((12, 10), dtype=bool)
    mask[3:9, 2:8] = True
    mask[4, 2] = False
    window = support_window(mask)
    sub = f[window.rows, window.cols]
    grad, sub_grad = gradient_of(f), gradient_of(sub)
    pairs = [
        (tv_gradient(f, 1e-3), tv_gradient(f, 1e-3, grad)),
        (huber_gradient(f, 0.7), huber_gradient(f, 0.7, grad)),
        (smoothed_tv_value(f, 1e-3, mask), smoothed_tv_value(f, 1e-3, window, sub_grad)),
        (huber_value(f, 0.7, mask), huber_value(f, 0.7, window, sub_grad)),
        (select_delta(f, mask), select_delta(f, window, sub_grad)),
        (select_delta(f), select_delta(f, None, grad)),
    ]
    for plain, carried in pairs:
        assert np.asarray(plain).tobytes() == np.asarray(carried).tobytes()


@pytest.mark.parametrize("kind", ["tv", "huber"])
def test_descent_steps_through_the_public_functions(monkeypatch, kind):
    """Each inner step calls the penalty's gradient function once and one
    backtracking_step, whose trials go through the penalty's value function."""
    calls = []
    depth = []

    def count(name):
        fn = getattr(sparsity, name)

        def counted(*args, **kwargs):
            calls.append((name, bool(depth)))
            depth.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                depth.pop()

        monkeypatch.setattr(sparsity, name, counted)

    names = ("tv_gradient", "smoothed_tv_value", "backtracking_step") if kind == "tv" else (
        "huber_gradient", "huber_value", "select_delta", "backtracking_step")
    for name in names:
        count(name)
    f = _step_edge_with_noise(seed=56)
    sparsity_descent(f, np.ones(f.shape, dtype=bool), PenaltySpec(kind=kind, n_inner_steps=5))
    assert calls.count((names[0], False)) == 5
    assert calls.count(("backtracking_step", False)) == 5
    assert calls.count((names[1], True)) >= 5  # trials, inside the line search
    if kind == "huber":
        assert calls.count(("select_delta", False)) == 5


# ------------------------------------------------------------ descent properties

def reference_descent(field, mask, spec, iterates=None):
    """The descent block composed from the public functions: per step one
    tv_gradient or select_delta + huber_gradient, then backtracking_step
    with the penalty's own value function. The next window iterate is
    formed here as sub + t*direction, and appended to `iterates` if given."""
    f = np.asarray(field)
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    win = (slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1))
    sub = f[win].copy()
    submask = mask[win]
    if spec.kind == "tv":
        eps = max(EPSILON * float(np.max(np.abs(sub))), EPSILON_FLOOR)
    for _ in range(spec.n_inner_steps):
        if spec.kind == "tv":
            grad = tv_gradient(sub, eps)
            penalty = lambda g: smoothed_tv_value(g, eps, submask)  # noqa: E731
        else:
            delta = select_delta(sub, submask)
            grad = huber_gradient(sub, delta)
            penalty = lambda g, d=delta: huber_value(g, d, submask)  # noqa: E731
        direction = np.where(submask, -grad, 0)
        if not direction.any():
            break
        t = backtracking_step(sub, -direction, penalty)
        if t == 0.0:
            break
        sub = sub + t * direction
        if iterates is not None:
            iterates.append(sub)
    out = f.copy()
    out[win] = np.where(submask, sub, out[win])
    return out


@st.composite
def descent_cases(draw):
    """A small complex field, a rectangular or ragged mask, a PenaltySpec and
    a first trial step to patch in as sparsity.T_INIT.

    Large first trials make the line search reject trials; `flat` fields
    have a zero gradient on part or all of the window."""
    h, w = draw(st.integers(2, 9)), draw(st.integers(2, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    field = draw(st.sampled_from([1e-3, 1.0, 50.0])) * (
        rng.normal(size=(h, w)) + 1j * rng.normal(size=(h, w)))
    if draw(st.booleans()):
        field[: draw(st.integers(0, h)), :] = 1 + 2j  # flat rows
    if draw(st.booleans()):
        y0, y1 = sorted(draw(st.lists(st.integers(0, h), min_size=2, max_size=2, unique=True)))
        x0, x1 = sorted(draw(st.lists(st.integers(0, w), min_size=2, max_size=2, unique=True)))
        mask = np.zeros((h, w), dtype=bool)
        mask[y0:y1, x0:x1] = True
    else:
        mask = rng.random((h, w)) < draw(st.floats(0.2, 0.9))
        mask[rng.integers(h), rng.integers(w)] = True
    kind = draw(st.sampled_from(["tv", "huber"]))
    spec = PenaltySpec(kind=kind, n_inner_steps=draw(st.integers(1, 6)))
    return field, mask, spec, draw(st.sampled_from([0.02, 1.0, 50.0]))


@settings(max_examples=150)
@given(descent_cases())
def test_descent_is_bit_equal_to_public_composition(case):
    field, mask, spec, t_init = case
    with patch.object(sparsity, "T_INIT", t_init):
        carried = sparsity_descent(field, mask, spec)
        reference = reference_descent(field, mask, spec)
    assert carried.dtype == reference.dtype
    assert carried.tobytes() == reference.tobytes()


@settings(max_examples=150)
@given(descent_cases())
def test_descent_step_never_raises_the_penalty(case):
    field, mask, spec, t_init = case
    window = support_window(mask)
    sub = field[window.rows, window.cols]
    if spec.kind == "tv":
        eps = max(EPSILON * float(np.max(np.abs(sub))), EPSILON_FLOOR)
        penalty = lambda g: smoothed_tv_value(g, eps, mask)  # noqa: E731
    else:
        delta = select_delta(field, mask)
        penalty = lambda g: huber_value(g, delta, mask)  # noqa: E731
    one_step = dataclasses.replace(spec, n_inner_steps=1)
    with patch.object(sparsity, "T_INIT", t_init):
        assert penalty(sparsity_descent(field, mask, one_step)) <= penalty(field)


def _paper_window_field():
    """The paper's 128x128 grid and 60x60 support: the binary phantom with
    seeded complex noise of 0.1 inside the support, and the support mask."""
    field = binary_phase_phantom(PhantomSpec(image_size=128, support_size=60))
    mask = make_support(128, 60)
    noise = random_field(field.shape, 72)
    return np.where(mask, field + 0.1 * noise, 0), mask


def _layout(field, order):
    """`field` itself, a Fortran-ordered copy or every second column of a wider array."""
    if order == "F":
        return np.asfortranarray(field)
    if order == "strided":
        wide = np.zeros((field.shape[0], 2 * field.shape[1]), field.dtype)
        wide[:, ::2] = field
        return wide[:, ::2]
    return field


@pytest.mark.parametrize("order", ["C", "F", "strided"])
@pytest.mark.parametrize("kind", ["tv", "huber"], ids=["tv-median", "huber-median"])
def test_descent_on_the_paper_window_is_bit_equal_to_public_composition(kind, order):
    field, mask = _paper_window_field()
    spec = PenaltySpec(kind=kind)
    reference = reference_descent(field, mask, spec)
    assert not np.array_equal(reference, field)  # the steps moved the field
    got = sparsity_descent(_layout(field, order), mask, spec)
    assert got.tobytes() == reference.tobytes()


# Every invalid PenaltySpec field and its error.
BAD_PENALTY_FIELDS = [
    ("kind", "wavelet", "unknown penalty kind"), ("n_inner_steps", 2.5, "n_inner_steps"),
    ("n_inner_steps", True, "n_inner_steps"), ("n_inner_steps", -1, "n_inner_steps"),
]


def test_penalty_spec_validation():
    for key, value, message in BAD_PENALTY_FIELDS:
        with pytest.raises(SettingError, match=message):
            PenaltySpec(**{"kind": "huber", key: value})
    # Huber's delta is always the per-step median: there is no field to set it
    assert [f.name for f in dataclasses.fields(PenaltySpec)] == ["kind", "n_inner_steps"]


# ------------------------------------------------------------ out= arguments

def _old_discrete_gradient(f):
    """discrete_gradient as first written: zero-filled arrays, sliced assignment."""
    gx = np.zeros_like(f)
    gy = np.zeros_like(f)
    gx[:, :-1] = f[:, 1:] - f[:, :-1]
    gy[:-1, :] = f[1:, :] - f[:-1, :]
    return gx, gy


def _old_discrete_divergence(gx, gy):
    """discrete_divergence as first written: accumulate into zeros, one
    temporary per interior difference."""
    out = np.zeros_like(gx)
    if out.shape[1] > 1:
        out[:, 0] += gx[:, 0]
        out[:, 1:-1] += gx[:, 1:-1] - gx[:, :-2]
        out[:, -1] -= gx[:, -2]
    if out.shape[0] > 1:
        out[0, :] += gy[0, :]
        out[1:-1, :] += gy[1:-1, :] - gy[:-2, :]
        out[-1, :] -= gy[-2, :]
    return out


@st.composite
def signed_zero_fields(draw, shape=None):
    """Complex fields, 1-wide ones included, with many +0/-0 components."""
    if shape is None:
        shape = (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    parts = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-1e3, 1e3))
    field = np.empty(shape, dtype=np.complex128)
    field.real = draw(hnp.arrays(np.float64, shape, elements=parts))
    field.imag = draw(hnp.arrays(np.float64, shape, elements=parts))
    return field


def _layouts(a):
    """`a` itself, then the same samples as strided views: a window of a
    larger array whose margins hold +-1e308 in alternating rows (any read
    across the window's edge would overflow), every second column of a wider
    array, rows reversed twice, and a Fortran-ordered copy."""
    h, w = a.shape
    framed = np.full((h + 2, w + 3), 1e308 - 1e308j)
    framed[1::2] *= -1
    framed[1:-1, 2:-1] = a
    spread = np.zeros((h, 2 * w), a.dtype)
    spread[:, ::2] = a
    return [a, framed[1:-1, 2:-1], spread[:, ::2], a[::-1].copy()[::-1], np.asfortranarray(a)]


def _strided_outs(shape, dtype=np.complex128):
    """NaN-filled views: every second column of a wider array (whose rows
    still flatten to one stride) and a window of a larger one (whose rows do
    not). Neither is C-contiguous unless `shape` has one row: then the
    window is, and a 1x1 column is."""
    h, w = shape
    return (np.full((h, 2 * w), np.nan, dtype)[:, ::2],
            np.full((h + 1, w + 2), np.nan, dtype)[1:, 1:-1])


@settings(max_examples=300)
@given(signed_zero_fields(), signed_zero_fields())
def test_stencils_match_their_first_form_bit_for_bit(f, p):
    old = _old_discrete_gradient(f)
    for field in _layouts(f):
        gx, gy = discrete_gradient(field)
        assert gx.tobytes() == old[0].tobytes() and gy.tobytes() == old[1].tobytes()
        assert field.tobytes() == f.tobytes()
    for gx, gy in (old, (p, p[::-1])):
        expected = _old_discrete_divergence(gx, gy).tobytes()
        for x, y in zip(_layouts(gx), _layouts(gy)):
            assert discrete_divergence(x, y).tobytes() == expected
            assert (x.tobytes(), y.tobytes()) == (gx.tobytes(), gy.tobytes())


def _wrapped_overflow_field():
    """Every row but the last ends at 1e308 and the next starts at -1e308
    (the imaginary parts with opposite signs): the differences that wrap from
    one row to the next overflow, every in-row and in-column one is finite."""
    rng = np.random.default_rng(64)
    f = rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5))
    f[::2, 1], f[1::2, 2] = -0.0, 0.0 - 0.0j
    f[:, -1] = 1e308 - 1e308j
    f[1:, 0] = -1e308 + 1e308j
    return f


@pytest.mark.parametrize("state", [{}, {"over": "raise", "invalid": "raise"}])
def test_stencils_do_not_overflow_across_rows(state):
    f = _wrapped_overflow_field()
    zeros = np.zeros_like(f)
    with np.errstate(**state):
        old = _old_discrete_gradient(f)
        expected = _old_discrete_divergence(f, zeros).tobytes()
        assert np.isfinite(old).all()
        for field in _layouts(f):
            gx, gy = discrete_gradient(field)
            assert gx.tobytes() == old[0].tobytes() and gy.tobytes() == old[1].tobytes()
            assert discrete_divergence(field, zeros).tobytes() == expected
            assert discrete_divergence(zeros, field).tobytes() == (
                _old_discrete_divergence(zeros, f).tobytes())


@pytest.mark.parametrize("axis", [0, 1])
def test_stencils_still_report_an_overflow_inside_the_grid(axis):
    # the one overflowing difference runs down a column (axis 0) or along a row
    f = np.zeros((3, 4), dtype=np.complex128)
    f[1, 1] = 1e308
    f[(0, 1) if axis == 0 else (1, 0)] = -1e308
    zeros = np.zeros_like(f)
    for field in _layouts(f):
        pair = (zeros, field) if axis == 0 else (field, zeros)
        for stencil, args in ((discrete_gradient, (field,)), (discrete_divergence, pair)):
            with pytest.warns(RuntimeWarning, match="overflow"):
                stencil(*args)
            with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
                stencil(*args)


@pytest.mark.parametrize("kind", ["tv", "huber"])
def test_an_overflow_in_the_descent_raises_inside_its_block(kind):
    # at x1e200 the first gradient's squares overflow; neither it nor TV's
    # squared smoothing may escape as a warning or a bare OverflowError
    rng = np.random.default_rng(67)
    f = 1e200 * (rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="overflow"):
            sparsity_descent(f, make_support(32, 12), PenaltySpec(kind=kind))
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            smoothed_tv_value(f[:2, :2] / 1e200, 1e200)


@pytest.mark.parametrize("field", [[[6.36836718e-162, 0.0]], [[6.36836718e-162, 0.0, 0.0]]])
def test_huber_descent_takes_no_step_on_a_field_too_flat_for_float64(field):
    # the median delta's square is subnormal (two pixels) or 0 (three, the
    # 1e-6 * peak fallback): 1/(delta*r) would overflow or divide by zero
    f = np.array(field)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = sparsity_descent(f, np.ones(f.shape, dtype=bool), PenaltySpec(kind="huber"))
    assert out.tobytes() == f.astype(np.complex128).tobytes()


def _quotient_gradient(grad, scale):
    """A penalty gradient as first written: -div of the complex quotients of
    gx and gy by the real scale (r for TV, delta * r for Huber)."""
    return np.negative(_old_discrete_divergence(grad.gx / scale, grad.gy / scale))


def _reciprocal_gradient(grad, scale):
    """A penalty gradient as the reciprocal path formed it: each part of gx
    and gy times 1 / scale, two real products per plane."""
    inv = np.reciprocal(scale)
    parts = [np.empty_like(g) for g in grad[:2]]
    for g, part in zip(grad, parts):
        np.multiply(g.real, inv, out=part.real)
        np.multiply(g.imag, inv, out=part.imag)
    return np.negative(_old_discrete_divergence(*parts))


# (field scale, epsilon or delta): tiny and huge scales, none of whose
# squared gradients or delta * r overflow, nor delta**2 turn subnormal
GRADIENT_SCALES = [(1.0, 1e-150), (1.0, 1e-8), (1.0, 1.0), (1.0, 1e150),
                   (1e-150, 1e-150), (1e150, 1e150), (1e-100, 1.0)]
# Moduli r passed as `scale=`: one whose reciprocal is subnormal, and a
# subnormal one whose reciprocal overflows to inf
EXTREME_MODULI = [1e308, 1e-310]


def _with_parts_at_zero(grad):
    """A copy of `grad` with some parts of gx and gy held at +0, others at -0."""
    gx, gy = grad.gx.copy(), grad.gy.copy()
    gx.real[::2], gy.real[:, 1::2] = -0.0, 0.0
    gx.imag[1::2], gy.imag[:, ::2] = 0.0, -0.0
    return Gradient(gx, gy, grad.mag_sq)


@settings(max_examples=200)
@given(signed_zero_fields(), st.sampled_from(GRADIENT_SCALES),
       st.sampled_from([None, *EXTREME_MODULI]), st.booleans())
def test_penalty_gradients_match_the_complex_quotient_bit_for_bit(f, scales, modulus, zeroed):
    size, param = scales
    f = f * size
    grad = gradient_of(f)
    if zeroed:
        grad = _with_parts_at_zero(grad)
    own_r = modulus is None
    r = np.sqrt(grad.mag_sq + param**2) if own_r else np.full(f.shape, modulus)
    # an overflowing reciprocal makes inf and NaN parts on both sides
    with np.errstate(**({} if own_r else {"all": "ignore"})):
        for gradient, scale in ((tv_gradient, r), (huber_gradient, param * r)):
            expected = _quotient_gradient(grad, scale)
            if own_r and not zeroed:
                got = gradient(f, param)
                assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
            fortran = Gradient(*map(np.asfortranarray, grad))
            got = gradient(f, param, fortran, scale=None if own_r else np.asfortranarray(r))
            assert got.tobytes() == expected.tobytes()
            for out in (np.empty_like(f), *_strided_outs(f.shape, f.dtype)):
                if not out.flags.c_contiguous:
                    # the divergence writes `out` through a flat view: a
                    # strided one is refused before any of it is written
                    with pytest.raises(ValueError, match="C-contiguous"):
                        gradient(f, param, grad, scale=r, out=out)
                    assert np.isnan(out).all()
                    continue
                assert gradient(f, param, grad, scale=r, out=out) is out
                assert out.tobytes() == expected.tobytes()


def test_an_infinite_sample_gives_nan_at_the_same_pixels():
    """The reciprocal path's bits hold for finite input only: where an inf
    makes a part NaN, the complex product puts NaN in both parts of that
    pixel, as the complex quotient does."""
    f = random_field((6, 6), 71)
    f[2, 3] = np.inf
    with np.errstate(invalid="ignore"):
        grad = gradient_of(f)
        r = np.sqrt(grad.mag_sq + 1e-8**2)
        before, quotient = _reciprocal_gradient(grad, r), _quotient_gradient(grad, r)
        got = tv_gradient(f, 1e-8)
    assert np.isnan(before.real).sum() == 5 and not np.isnan(before.imag).any()
    assert np.array_equal(np.isnan(got), np.isnan(before))
    assert np.array_equal(np.isnan(got.real), np.isnan(got.imag))
    assert np.array_equal(got, quotient, equal_nan=True)


def _gradient_buffers(shape):
    return Gradient(np.empty(shape, np.complex128), np.empty(shape, np.complex128),
                    np.empty(shape))


def test_gradient_of_into_out_is_byte_equal():
    f = random_field((7, 9), 60)
    gx, gy = _old_discrete_gradient(f)
    out = _gradient_buffers(f.shape)
    grad = gradient_of(f, out=out)
    assert all(a is b for a, b in zip(grad, out))
    for got in (grad, gradient_of(f)):
        assert got.gx.tobytes() == gx.tobytes() and got.gy.tobytes() == gy.tobytes()
        assert got.mag_sq.tobytes() == (np.abs(gx) ** 2 + np.abs(gy) ** 2).tobytes()


def test_gradient_of_refuses_a_strided_out_gx():
    # the stencil differences gx through a flat view: a strided gx would
    # receive a copy's differences and come back wrong, by up to 3.0 here
    f = random_field((6, 6), 61)
    base = np.zeros((8, 9), np.complex128)
    out = Gradient(base[1:-1, 2:-1], np.zeros((6, 6), np.complex128), np.zeros((6, 6)))
    with pytest.raises(ValueError, match="C-contiguous"):
        gradient_of(f, out=out)
    assert not base.any() and not out.gy.any() and not out.mag_sq.any()
    # gy and mag_sq are written through their own strides, so they may be strided
    expected = gradient_of(f)
    strided = Gradient(np.empty((6, 6), np.complex128), base[1:-1, 2:-1],
                       np.zeros((8, 9))[1:-1, 2:-1])
    got = gradient_of(f, out=strided)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, expected))


def _regions(shape):
    """A full region and a ragged one, as masks."""
    ragged = np.ones(shape, dtype=bool)
    ragged[0, 0] = ragged[-1, 1] = False
    return np.ones(shape, dtype=bool), ragged


@pytest.mark.parametrize("ragged", [False, True, None])
def test_penalty_values_into_out_are_byte_equal(ragged):
    f = _step_edge_with_noise(n=12, seed=61)
    region = None if ragged is None else _regions(f.shape)[ragged]
    pick = np.ones(f.shape, dtype=bool) if region is None else region
    grad = gradient_of(f)
    before = [a.tobytes() for a in (f, *grad)]
    smoothed = np.sqrt(grad.mag_sq + 1e-3**2)
    huber_r = np.sqrt(grad.mag_sq + 0.4**2)
    # a strided `out` too, which must not change the summation order
    for out in (np.empty(f.shape), np.empty((f.shape[0], 2 * f.shape[1]))[:, ::2]):
        value = smoothed_tv_value(f, 1e-3, region, grad, out=out)
        assert out.tobytes() == smoothed.tobytes()
        assert value == smoothed_tv_value(f, 1e-3, region) == float(np.sum(smoothed[pick]))
        value = huber_value(f, 0.4, region, grad, out=out)
        assert out.tobytes() == huber_r.tobytes()
        expected = float(np.sum(huber_r[pick])) / 0.4 - np.count_nonzero(pick)
        assert type(value) is float
        assert value == huber_value(f, 0.4, region) == expected
    assert tv_value(f, region) == float(np.sum(np.sqrt(grad.mag_sq)[pick]))
    assert [a.tobytes() for a in (f, *grad)] == before


def test_penalty_gradients_into_out_are_byte_equal():
    f = _step_edge_with_noise(n=12, seed=62)
    grad = gradient_of(f)
    scale = np.sqrt(grad.mag_sq + 1e-3**2)
    before = [a.tobytes() for a in (f, *grad, scale)]
    out = np.empty_like(f)
    assert tv_gradient(f, 1e-3, grad, scale=scale, out=out) is out
    assert out.tobytes() == tv_gradient(f, 1e-3).tobytes()
    assert huber_gradient(f, 0.4, grad, out=out) is out
    assert out.tobytes() == huber_gradient(f, 0.4).tobytes()
    assert [a.tobytes() for a in (f, *grad, scale)] == before


@pytest.mark.parametrize("t_init", [0.02, 50.0])
def test_backtracking_into_out_keeps_the_accepted_trial(t_init):
    f = _step_edge_with_noise(n=10, seed=63)
    gradient = tv_gradient(f, 1e-3)
    trials = []

    def penalty(g):
        trials.append(g.copy())
        return smoothed_tv_value(g, 1e-3)

    before = (f.tobytes(), gradient.tobytes())
    out = np.empty_like(f)
    with patch.object(sparsity, "T_INIT", t_init):
        t = backtracking_step(f, gradient, penalty, out=out)
        again = backtracking_step(f, gradient, lambda g: smoothed_tv_value(g, 1e-3))
    assert t > 0 and t == again
    assert out.tobytes() == trials[-1].tobytes() == (f + t * -gradient).tobytes()
    assert out.tobytes() == (f - t * gradient).tobytes()
    assert (f.tobytes(), gradient.tobytes()) == before
    if t_init > 1:
        assert len(trials) > 2  # p0, then rejected trials before the accepted one


@settings(max_examples=100)
@given(descent_cases(), descent_cases())
def test_descent_into_out_is_byte_equal(case, other):
    for field, mask, spec, t_init in (case, other, case):
        before = (field.tobytes(), mask.tobytes())
        out = np.empty_like(field)
        with patch.object(sparsity, "T_INIT", t_init):
            assert sparsity_descent(field, mask, spec, out=out) is out
            assert out.tobytes() == sparsity_descent(field, mask, spec).tobytes()
        assert (field.tobytes(), mask.tobytes()) == before


# ------------------------------------------------------------ the lean descent step

@settings(max_examples=200)
@given(signed_zero_fields(), signed_zero_fields())
def test_private_stencils_match_the_public_ones_bit_for_bit(f, p):
    gx, gy = np.full_like(f, np.nan), np.full_like(f, np.nan)
    assert all(a is b for a, b in zip(sparsity._gradient_into(f, gx, gy), (gx, gy)))
    for got, public, first in zip((gx, gy), discrete_gradient(f), _old_discrete_gradient(f)):
        assert got.tobytes() == public.tobytes() == first.tobytes()
    for x, y in ((gx, gy), (p, p[::-1].copy())):
        out = np.full_like(x, np.nan)
        assert sparsity._divergence_into(x, y, out) is out
        assert out.tobytes() == discrete_divergence(x, y).tobytes() == (
            _old_discrete_divergence(x, y).tobytes())


@pytest.mark.parametrize("ragged", [False, True], ids=["False-median", "True-median"])
def test_descent_huber_p0_is_bit_equal_to_huber_value(monkeypatch, ragged):
    """Each Huber step recomputes p0 and r after select_delta: p0 is
    huber_value's float of the step's iterate and median delta, and the
    scale huber_gradient gets is sqrt(|grad|^2 + delta^2) of that iterate."""
    f = _step_edge_with_noise(n=12, seed=65)
    mask = np.ones(f.shape, dtype=bool)
    mask[0, :3] = not ragged
    deltas, scales, steps = [], [], []
    select, gradient, step = (sparsity.select_delta, sparsity.huber_gradient,
                              sparsity.backtracking_step)

    def selecting(*args):
        deltas.append(select(*args))
        return deltas[-1]

    def differentiating(field, delta, grad=None, *, scale=None, out=None):
        scales.append(scale.copy())
        return gradient(field, delta, grad, scale=scale, out=out)

    def stepping(field, gradient, penalty, p0=None, *, out=None):
        steps.append((field.copy(), p0))
        return step(field, gradient, penalty, p0, out=out)

    monkeypatch.setattr(sparsity, "select_delta", selecting)
    monkeypatch.setattr(sparsity, "huber_gradient", differentiating)
    monkeypatch.setattr(sparsity, "backtracking_step", stepping)
    sparsity_descent(f, mask, PenaltySpec(kind="huber", n_inner_steps=5))
    assert len(steps) == len(scales) == len(deltas) == 5
    submask = support_window(mask).mask
    for (sub, p0), scale, delta in zip(steps, scales, deltas):
        assert type(p0) is float
        assert np.float64(p0).tobytes() == np.float64(huber_value(sub, delta, submask)).tobytes()
        assert scale.tobytes() == np.sqrt(gradient_of(sub).mag_sq + delta**2).tobytes()


@settings(max_examples=300)
@given(st.data())
def test_backtracking_trials_keep_every_signed_zero(data):
    """Each trial is field + t*(-gradient) bit for bit, whatever zeros the
    field and the gradient hold: the trial scalar is -t - 0j, not -t + 0j."""
    f = data.draw(signed_zero_fields())
    gradient = data.draw(signed_zero_fields(f.shape))
    values = iter([1.0, 1.0, -np.inf])  # two trials rejected, the third accepted
    trials = []

    def penalty(g):
        trials.append(g.copy())
        return next(values)

    with patch.object(sparsity, "T_INIT", 0.02):
        assert backtracking_step(f, gradient, penalty, p0=0.0, out=np.empty_like(f)) > 0
    t = 0.02 / max(1.0, float(np.max(np.abs(gradient))))
    expected = [(f + t * 0.5**k * -gradient).tobytes() for k in range(3)]
    assert [trial.tobytes() for trial in trials] == expected


@settings(max_examples=150)
@given(descent_cases(), st.integers(0, 2**32 - 1))
def test_descent_iterates_keep_every_signed_zero(case, seed):
    """Every accepted trial, outside pixels of the window included, is the
    window iterate sub + t*direction with direction +0 outside the support,
    on fields that hold -0 components inside and outside it."""
    field, mask, spec, t_init = case
    rng = np.random.default_rng(seed)
    field = field.copy()
    field.real[rng.random(field.shape) < 0.3] = -0.0
    field.imag[rng.random(field.shape) < 0.3] = -0.0
    accepted = []
    step = sparsity.backtracking_step

    def stepping(*args, out=None, **kwargs):
        t = step(*args, out=out, **kwargs)
        if t > 0:
            accepted.append(out.copy())
        return t

    with pytest.MonkeyPatch.context() as mp, patch.object(sparsity, "T_INIT", t_init):
        mp.setattr(sparsity, "backtracking_step", stepping)
        got = sparsity_descent(field, mask, spec)
        iterates = []
        assert got.tobytes() == reference_descent(field, mask, spec, iterates).tobytes()
    assert [a.tobytes() for a in accepted] == [a.tobytes() for a in iterates]


# ------------------------------------------------------------ real fields

@st.composite
def real_field_cases(draw):
    """A real field holding +0 and -0 samples, and a region: None, a ragged
    mask or that mask's SupportWindow."""
    field = draw(signed_zero_fields()).real.copy()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random(field.shape) < draw(st.floats(0.2, 1.0))
    mask[rng.integers(field.shape[0]), rng.integers(field.shape[1])] = True
    region = draw(st.sampled_from(["none", "mask", "window"]))
    return field, {"none": None, "mask": mask, "window": support_window(mask)}[region]


@settings(max_examples=200)
@given(real_field_cases())
def test_penalty_values_of_a_real_field_are_those_of_its_complex_cast(case):
    """|a + 0j| is exactly |a|, so casting a real field on entry keeps its
    penalty values bit for bit."""
    field, region = case
    cast = field.astype(np.complex128)
    for value in (lambda f: tv_value(f, region),
                  lambda f: smoothed_tv_value(f, 1e-3, region),
                  lambda f: huber_value(f, 0.7, region),
                  lambda f: select_delta(f, region)):
        got, expected = value(field), value(cast)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(expected).tobytes()


@settings(max_examples=100)
@given(real_field_cases(), st.sampled_from(["tv", "huber"]))
def test_gradients_and_descent_of_a_real_field_are_complex128(case, kind):
    field, region = case
    mask = np.ones(field.shape, dtype=bool) if region is None else region
    cast = field.astype(np.complex128)
    spec = PenaltySpec(kind=kind, n_inner_steps=3)
    for compute in (lambda f: discrete_gradient(f)[0], lambda f: discrete_gradient(f)[1],
                    lambda f: tv_gradient(f, 1e-3), lambda f: huber_gradient(f, 0.7),
                    lambda f: sparsity_descent(f, mask, spec)):
        got = compute(field)
        assert got.dtype == np.complex128
        assert got.tobytes() == compute(cast).tobytes()
