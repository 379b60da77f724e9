import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsepr import sparsity
from sparsepr.sparsity import (
    EPSILON_FLOOR,
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


def test_select_delta_odd_median():
    # gradient moduli {1,2,3,4,5} -> median 3; verify via the sort oracle
    mags = np.array([1.0, 2, 3, 4, 5])
    assert np.median(mags) == 3.0


def test_select_delta_even_median_is_middle_mean():
    mags = np.array([1.0, 2, 3, 4])
    assert np.median(mags) == 2.5


def test_select_delta_matches_sort_oracle():
    f = random_field((9, 9), 46)
    region = np.zeros((9, 9), dtype=bool)
    region[2:7, 3:8] = True
    gx, gy = discrete_gradient(f[2:7, 3:8])
    mags = np.sort(np.sqrt(np.abs(gx) ** 2 + np.abs(gy) ** 2).ravel())
    n = mags.size
    oracle = (mags[n // 2 - 1] + mags[n // 2]) / 2 if n % 2 == 0 else mags[n // 2]
    assert select_delta(f, region) == pytest.approx(oracle, rel=1e-14)


# ------------------------------------------------------------ line search

def test_backtracking_zero_direction_accepts_t_init():
    spec = PenaltySpec(kind="tv")
    f = random_field((4, 4), 47)
    t = backtracking_step(f, np.zeros_like(f), lambda g: float(np.sum(np.abs(g))), spec)
    assert t == spec.t_init


def test_backtracking_quadratic_hand_case():
    # P(f) = ||f||^2/2 from f = ones along d = -ones:
    # P(0) = 0 <= P(f) - 0.3 * 1 * ||d||^2 = 2 - 1.2, so t = 1 is accepted.
    spec = PenaltySpec(kind="tv", t_init=1.0)
    f = np.ones((2, 2), dtype=np.complex128)
    d = -np.ones_like(f)
    penalty = lambda g: float(np.sum(np.abs(g) ** 2) / 2)  # noqa: E731
    t = backtracking_step(f, d, penalty, spec)
    assert t == 1.0


def test_backtracking_accepted_step_never_increases_penalty():
    spec = PenaltySpec(kind="tv")
    f = random_field((8, 8), 48)
    eps = 0.05
    d = -tv_gradient(f, eps)
    penalty = lambda g: smoothed_tv_value(g, eps)  # noqa: E731
    t = backtracking_step(f, d, penalty, spec)
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

def reference_descent(field, mask, spec):
    """The descent block composed from the public functions: per step one
    tv_gradient or select_delta + huber_gradient, then backtracking_step
    with the penalty's own value function."""
    f = np.asarray(field)
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    win = (slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1))
    sub = f[win].copy()
    submask = mask[win]
    if spec.kind == "tv":
        eps = max(spec.epsilon * float(np.max(np.abs(sub))), EPSILON_FLOOR)
    for _ in range(spec.n_inner_steps):
        if spec.kind == "tv":
            grad = tv_gradient(sub, eps)
            penalty = lambda g: smoothed_tv_value(g, eps, submask)  # noqa: E731
        else:
            if spec.delta_rule == "median":
                delta = select_delta(sub, submask)
            else:
                delta = float(spec.delta_rule)
            grad = huber_gradient(sub, delta)
            penalty = lambda g, d=delta: huber_value(g, d, submask)  # noqa: E731
        direction = np.where(submask, -grad, 0)
        if not direction.any():
            break
        t = backtracking_step(sub, direction, penalty, spec)
        if t == 0.0:
            break
        sub = sub + t * direction
    out = f.copy()
    out[win] = np.where(submask, sub, out[win])
    return out


@st.composite
def descent_cases(draw):
    """A small complex field, a rectangular or ragged mask and a PenaltySpec.

    Large t_init values make the line search reject trials; `flat` fields
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
    spec = PenaltySpec(
        kind=kind,
        n_inner_steps=draw(st.integers(1, 6)),
        delta_rule=draw(st.sampled_from(["median", 0.05, 1.0, 20.0])),
        t_init=draw(st.sampled_from([0.02, 1.0, 50.0])),
    )
    return field, mask, spec


@settings(max_examples=150, deadline=None)
@given(descent_cases())
def test_descent_is_bit_equal_to_public_composition(case):
    field, mask, spec = case
    carried = sparsity_descent(field, mask, spec)
    reference = reference_descent(field, mask, spec)
    assert carried.dtype == reference.dtype
    assert carried.tobytes() == reference.tobytes()


@settings(max_examples=150, deadline=None)
@given(descent_cases())
def test_descent_step_never_raises_the_penalty(case):
    field, mask, spec = case
    window = support_window(mask)
    sub = field[window.rows, window.cols]
    if spec.kind == "tv":
        eps = max(spec.epsilon * float(np.max(np.abs(sub))), EPSILON_FLOOR)
        penalty = lambda g: smoothed_tv_value(g, eps, mask)  # noqa: E731
    else:
        delta = select_delta(field, mask) if spec.delta_rule == "median" else spec.delta_rule
        penalty = lambda g: huber_value(g, delta, mask)  # noqa: E731
    one_step = dataclasses.replace(spec, n_inner_steps=1)
    assert penalty(sparsity_descent(field, mask, one_step)) <= penalty(field)


def test_penalty_spec_validation():
    with pytest.raises(ValueError):
        PenaltySpec(kind="wavelet")
    with pytest.raises(ValueError):
        PenaltySpec(kind="huber", delta_rule=-1.0)
    with pytest.raises(ValueError):
        PenaltySpec(kind="tv", epsilon=0.0)
    with pytest.raises(ValueError):
        PenaltySpec(kind="tv", n_inner_steps=2.5)
    with pytest.raises(ValueError):
        PenaltySpec(kind="tv", n_inner_steps=True)
    with pytest.raises(ValueError, match="epsilon must be a real number"):
        PenaltySpec(kind="tv", epsilon=True)
    with pytest.raises(ValueError, match="t_init must be a real number"):
        PenaltySpec(kind="tv", t_init="0.1")


@pytest.mark.parametrize("delta", [True, False, [0.5], None])
def test_fixed_delta_must_be_a_real_number(delta):
    with pytest.raises(ValueError, match="real number"):
        PenaltySpec(kind="huber", delta_rule=delta)


def test_fixed_delta_is_stored_as_float():
    spec = PenaltySpec(kind="huber", delta_rule=2)
    assert spec.delta_rule == 2.0 and type(spec.delta_rule) is float
