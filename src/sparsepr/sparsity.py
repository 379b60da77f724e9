"""Sparsity penalties and the in-support gradient-descent step.

Total variation of a complex image is the L1 norm of its gradient
magnitude, sum_i sqrt(|dx g_i|^2 + |dy g_i|^2). The Huber-style
alternative, sum_i [sqrt(1 + |grad g_i|^2 / delta^2) - 1], behaves like
TV/delta for gradients much larger than delta and like a quadratic
smoothness penalty below it. Both rest on one smoothed modulus
r_i = sqrt(|grad g_i|^2 + s^2): TV is sum_i r_i at s = 0, the smoothed TV
of the descent takes s = eps, and Huber is sum_i r_i / delta - n over the
n pixels at s = delta.

Discretization: forward differences with replicate (Neumann) boundaries,
so the last column of dx and last row of dy are zero. The divergence is
the exact negative adjoint of this gradient, which makes the functional
gradients pass finite-difference checks to machine-level accuracy.

Fields are complex128: each public function casts a field it is given
once, on entry, so a real field is taken as its complex cast. |a + 0j| is
exactly |a|, so a penalty value of a real field has the bits of its
complex cast; gradients, stencils and the descent return complex128.

A function that takes a keyword `out` writes there what it would
otherwise allocate and returns it, with the same bits; `out` must not
overlap an input. A field-shaped `out` is complex128; a penalty value's
`out` receives the smoothed modulus r it sums, a float64 array. The
stencils write through flat views, so the `out` of tv_gradient and
huber_gradient must be C-contiguous (else ValueError).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grids import SettingError, as_mask, bounding_box, check_number, check_same_shape

# TV's smoothing, and Huber's delta where the median |grad g| is 0, is
# EPSILON times the window's max modulus, so it scales with the data.
EPSILON = 1e-8
# Armijo line search: the first trial step (before its 1/max(1, max|g|)
# rescaling), sufficient-decrease fraction, step shrink factor and the
# number of shrinks tried before giving up. T_INIT is deliberately small:
# the descent block runs every outer iteration, so a gentle nudge per step
# regularizes without flattening genuine edges, while large trial steps let
# the line search accept moves that crush the penalty below that of the
# true object and stall the Fourier-magnitude fit.
T_INIT = 0.02
LS_ALPHA = 0.3
LS_SHRINK = 0.5
MAX_BACKTRACK_STEPS = 60


@dataclass(frozen=True)
class PenaltySpec:
    """Choice of sparsity penalty and its descent parameters.

    kind: "none", "tv" or "huber".
    n_inner_steps: gradient-descent steps per outer iteration.

    Huber's delta is select_delta's median |grad g| over the support,
    recomputed at every descent step and for every reported penalty, or
    EPSILON * max|g| where that median is 0. The descent's numerical
    constants are module constants: EPSILON for the smoothing, T_INIT,
    LS_ALPHA, LS_SHRINK and MAX_BACKTRACK_STEPS for the line search.
    """

    kind: str = "none"
    n_inner_steps: int = 30

    def __post_init__(self):
        if self.kind not in ("none", "tv", "huber"):
            raise SettingError(f"unknown penalty kind {self.kind!r}")
        check_number("n_inner_steps", self.n_inner_steps, integer=True)
        if self.n_inner_steps < 0:
            raise SettingError("n_inner_steps must be >= 0")


def _gradient_into(f, gx, gy):
    """discrete_gradient's stencil, unchecked: C-contiguous arrays of one shape."""
    # x-differences on the flattened rows, from f shifted into gx: its last
    # column holds 0, so the pair that wraps to the next row is 0 - f.
    flat, f_flat = gx.reshape(-1), f.reshape(-1)
    flat[:-1] = f_flat[1:]
    gx[:, -1:] = 0
    flat -= f_flat
    gx[:, -1:] = 0
    np.subtract(f[1:], f[:-1], out=gy[:-1])
    gy[-1:] = 0
    return gx, gy


def _divergence_into(gx, gy, out):
    """discrete_divergence's stencil, unchecked: gx and out C-contiguous, gy of their shape."""
    # Last column of gx / last row of gy never contribute to <grad f, p>,
    # so the adjoint ignores them; along an axis of length 1 nothing does.
    if out.shape[1] > 1:
        # (0 + a) - b rounds as 0 + (a - b), signed zeros included. Columns
        # 0 and -1 start at 0: the wrapped flat pair is 0 - gx, cannot overflow.
        np.add(gx, 0, out=out)
        out[:, ::out.shape[1] - 1] = 0
        shifted = out.reshape(-1)[1:]
        shifted -= gx.reshape(-1)[:-1]
        np.add(gx[:, 0], 0, out=out[:, 0])
    else:
        out[...] = 0
    if out.shape[0] > 1:
        # views held by name: out[i] op= x would copy the result onto itself
        first, middle, last = out[0], out[1:-1], out[-1]
        first += gy[0]
        middle += gy[1:-1] - gy[:-2]
        last -= gy[-2]
    return out


def discrete_gradient(field) -> tuple[np.ndarray, np.ndarray]:
    """Forward-difference gradient (gx, gy); zero at the far edges."""
    f = np.ascontiguousarray(field, np.complex128)
    return _gradient_into(f, np.empty_like(f), np.empty_like(f))


def discrete_divergence(gx, gy) -> np.ndarray:
    """Negative adjoint of discrete_gradient: <grad f, p> == -<f, div p>."""
    gx = np.ascontiguousarray(gx, np.complex128)
    gy = np.asarray(gy, np.complex128)
    check_same_shape(gx, gy)
    return _divergence_into(gx, gy, np.empty_like(gx))


class SupportWindow(NamedTuple):
    """A support mask cut to its bounding box.

    `shape` is the full grid's shape, `rows`/`cols` slice the window out
    of it and `mask` is the support inside the window, None if all of it.
    Every penalty function accepts one wherever it accepts a region mask; a
    caller that evaluates penalties many times on one support builds it
    once with `support_window` and skips the per-call checks and cropping.
    """

    shape: tuple
    rows: slice
    cols: slice
    mask: np.ndarray | None


def support_window(region) -> SupportWindow:
    """Validate a support mask and cut it to its bounding-box window."""
    m = as_mask(region)
    x0, y0, x1, y1 = bounding_box(m)
    rows, cols = slice(y0, y1 + 1), slice(x0, x1 + 1)
    inside = m[rows, cols]
    return SupportWindow(m.shape, rows, cols, None if inside.all() else inside)


def _window_of(field, region) -> tuple[np.ndarray, SupportWindow]:
    """The field as a complex128 array and the window of `region` (whole grid if None)."""
    f = np.asarray(field, np.complex128)
    if region is None:
        return f, SupportWindow(f.shape, slice(None), slice(None), None)
    window = region if isinstance(region, SupportWindow) else support_window(region)
    if f.shape != window.shape:
        raise ValueError(f"shape mismatch: {sorted({f.shape, window.shape})}")
    return f, window


def _restrict(field, region):
    """Bounding-box view of the field and its window's mask."""
    f, window = _window_of(field, region)
    return f[window.rows, window.cols], window.mask


class Gradient(NamedTuple):
    """discrete_gradient of a field with its squared modulus |gx|^2 + |gy|^2.

    gradient_of makes one. Every penalty value and gradient function takes
    one as `grad`: a caller that already holds the gradient of the array it
    evaluates (for a penalty value, of the region's window of that array)
    passes it and the function skips the differencing.
    """

    gx: np.ndarray
    gy: np.ndarray
    mag_sq: np.ndarray


def _fill_gradient(f, grad: Gradient) -> Gradient:
    """gradient_of's body, unchecked: fills `grad` from f, f and grad.gx C-contiguous."""
    _gradient_into(f, grad.gx, grad.gy)
    mag_sq = np.abs(grad.gx, out=grad.mag_sq)
    np.square(mag_sq, out=mag_sq)
    gy_sq = np.abs(grad.gy)
    mag_sq += np.square(gy_sq, out=gy_sq)
    return grad


def gradient_of(field) -> Gradient:
    """The field's Gradient."""
    f = np.ascontiguousarray(field, np.complex128)
    return _fill_gradient(f, Gradient(np.empty_like(f), np.empty_like(f), np.empty(f.shape)))


def _smoothed_modulus(mag_sq, s, out=None) -> np.ndarray:
    """r = sqrt(mag_sq + s**2), the per-pixel modulus every penalty sums.

    At s = 0 it is sqrt(mag_sq) bit for bit, since mag_sq >= +0. s is
    squared as a float64, which has the Python float's bits and, unlike
    it, obeys np.errstate.
    """
    r = np.add(mag_sq, np.float64(s)**2, out=out)
    return np.sqrt(r, out=r)


def _modulus_sum(field, s, region, grad: Gradient | None, out) -> tuple[float, int]:
    """Row-major sum (as np.sum reduces) of the smoothed modulus r at `s` over
    `region`'s n pixels, and n. r is taken on the region's window, from `grad`
    (that window's Gradient) if given, and left in `out`."""
    sub, submask = _restrict(field, region)
    r = _smoothed_modulus((gradient_of(sub) if grad is None else grad).mag_sq, s, out)
    terms = r.ravel() if submask is None else r[submask]
    return float(np.add.reduce(terms)), terms.size


def tv_value(field, region=None) -> float:
    """Total variation over `region` (whole grid if None).

    Gradients are taken on the region's bounding-box window so that
    outside-support content never leaks into the reported value.
    """
    return _modulus_sum(field, 0.0, region, None, None)[0]


def smoothed_tv_value(field, epsilon, region=None, grad: Gradient | None = None, *,
                      out=None) -> float:
    """TV with the modulus smoothed to r = sqrt(|grad|^2 + eps^2), eps > 0.

    This is the exact antiderivative of `tv_gradient`, used by the line
    search and the finite-difference gradient checks. Its per-pixel terms
    r are the `scale` that tv_gradient takes.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be > 0")
    return _modulus_sum(field, epsilon, region, grad, out)[0]


def _modulus_gradient(field, s, grad: Gradient | None, r, out, weight=None) -> np.ndarray:
    """-discrete_divergence(gx / scale, gy / scale), scale = weight * r (r if
    weight is None): the gradient of sum(r) / weight, with r the smoothed
    modulus at `s` unless the caller passes it.

    Each complex plane is multiplied by 1/scale + 0j. numpy's complex
    quotient by c + 0j is (a + b*0) * (1/c) part by part, the product
    (a*(1/c) - b*0) + (a*0 + b*(1/c))j: for finite input they differ only in
    the sign of a zero part, which the divergence's 0 + a form erases, so
    the bits are the quotient's. They equal those of two real products by
    1/c for finite input only: where a part is inf, b*0 makes both parts of
    the pixel NaN, as in the quotient, where those products make one. The
    quotients are contiguous, so they skip discrete_divergence's checks.
    """
    if out is not None and not out.flags.c_contiguous:
        raise ValueError("a penalty gradient's out must be C-contiguous")
    if grad is None:
        grad = gradient_of(field)
    if r is None:
        r = _smoothed_modulus(grad.mag_sq, s)
    py = np.zeros(grad.gy.shape, np.complex128)
    inv = py.real
    np.reciprocal(r if weight is None else np.multiply(r, weight, out=inv), out=inv)
    px = np.multiply(grad.gx, py, order="C")
    np.multiply(grad.gy, py, out=py)
    div = np.empty_like(px) if out is None else out
    parts = _divergence_into(px, py, div).view(np.float64)
    np.negative(parts, out=parts)  # part by part: numpy's complex negative is a scalar loop
    return div


def tv_gradient(field, epsilon, grad: Gradient | None = None, *, scale=None,
                out=None) -> np.ndarray:
    """Functional gradient of the smoothed TV: -div(grad f / sqrt(|grad f|^2 + eps^2)).

    A caller holding r = sqrt(|grad f|^2 + eps^2) of this gradient, as
    smoothed_tv_value's `out` leaves it, passes it as `scale`.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be > 0")
    return _modulus_gradient(field, epsilon, grad, scale, out)


def huber_value(field, delta, region=None, grad: Gradient | None = None, *,
                out=None) -> float:
    """Huber-style penalty sum of sqrt(1 + |grad g|^2/delta^2) - 1 over `region`,
    computed as sum(r) / delta - n with r = sqrt(|grad g|^2 + delta^2) over its
    n pixels: smoothed TV at eps = delta, rescaled. `out` receives r.
    """
    if not delta > 0:
        raise ValueError("delta must be > 0")
    total, n = _modulus_sum(field, delta, region, grad, out)
    return float(total / delta - n)


def huber_gradient(field, delta, grad: Gradient | None = None, *, scale=None,
                   out=None) -> np.ndarray:
    """Functional gradient of the Huber penalty: -div(grad f / (delta * r)).

    With r = sqrt(|grad f|^2 + delta^2) this is the textbook
    -(1/delta^2) div(grad f / sqrt(1 + |grad f|^2/delta^2)); delta * r >=
    delta^2 > 0, so no extra smoothing is needed. A caller holding r of this
    gradient, as huber_value's `out` leaves it, passes it as `scale`.
    """
    if not delta > 0:
        raise ValueError("delta must be > 0")
    return _modulus_gradient(field, delta, grad, scale, out, weight=delta)


def select_delta(field, region=None, grad: Gradient | None = None) -> float:
    """Median gradient magnitude over the region's pixels.

    One partial selection of a copy of the n squared moduli sq = |grad|^2 at
    k = (n-1)//2 finds the middle, and only it is square-rooted: sqrt(sq[k]),
    or for even n (sqrt(sq[k]) + sqrt(min of sq above k)) / 2. sqrt is
    monotone and correctly rounded, so these are the order statistics of
    |grad|, and the result has the bits of numpy's median of |grad|, whose
    mean of the middle pair also adds before it halves.

    A median that is not positive (a constant field, a NaN sample) gives way
    to TV's smoothing, EPSILON * max|field| over the window (0 where that
    underflows), or to 1 where the window has no scale: all zero, a NaN
    sample or no samples.
    """
    sub, submask = _restrict(field, region)
    if grad is None:
        grad = gradient_of(sub)
    sq = grad.mag_sq.flatten() if submask is None else grad.mag_sq[submask]  # copies
    if not sq.size:
        return 1.0
    k = (sq.size - 1) // 2
    sq.partition(k)
    # NaN sorts last, so a NaN sample makes sq[k] or `above` NaN.
    above = sq[k + 1:].min(initial=np.inf)
    med = np.sqrt(sq[k]) if sq.size % 2 else (np.sqrt(sq[k]) + np.sqrt(above)) / 2
    if med > 0 and not np.isnan(above):
        return float(med)
    peak = float(np.max(np.abs(sub)))
    return EPSILON * peak if peak > 0 else 1.0


def backtracking_step(field, gradient, penalty, p0=None, *, out=None) -> float:
    """Armijo backtracking along minus `gradient`, the penalty's gradient.

    Tries t = t0 * LS_SHRINK^k for k = 0..MAX_BACKTRACK_STEPS, where t0 is
    T_INIT rescaled by 1/max(1, max|gradient|) to keep the first trial
    comparable across image scales. Returns the first t with
    penalty(field - t*g) <= penalty(field) - LS_ALPHA * t * ||g||^2,
    or 0.0 if none qualifies (no progress possible at this resolution).
    A caller that already knows penalty(field) passes it as `p0`, which
    saves one evaluation; penalty is then called on trial points only.

    A trial is field + (-t - 0j)*g, whose four real products with g are
    those of t + 0j with -g. So each trial is field + t*(-g) bit for bit,
    signed zeros too; a part of g held at -0 steps as a part of -g held at
    +0. The field and the gradient are cast to complex128.

    Each trial is written into `out`, if given. When it returns t > 0, its
    last call to `penalty` was on the accepted trial, which is then in
    `out`; sparsity_descent relies on this.
    """
    field, g = np.asarray(field, np.complex128), np.asarray(gradient, np.complex128)
    g_abs = np.abs(g)
    g_max = float(np.maximum.reduce(g_abs, axis=None)) if g.size else 0.0
    g_sq = float(np.add.reduce(np.square(g_abs, out=g_abs), axis=None))
    if p0 is None:
        p0 = penalty(field)
    t = T_INIT / max(1.0, g_max)
    for _ in range(MAX_BACKTRACK_STEPS + 1):
        trial = np.add(field, np.multiply(-np.complex128(t), g, out=out), out=out)
        if penalty(trial) <= p0 - LS_ALPHA * t * g_sq:
            return t
        t *= LS_SHRINK
    return 0.0


def sparsity_descent(field, region, spec: PenaltySpec, *, out=None) -> np.ndarray:
    """Run spec.n_inner_steps penalty-descent steps on the in-support pixels.

    Work happens on the region's bounding-box window (`region` is a mask
    or a SupportWindow); only pixels where the mask is true are updated,
    everything else is returned unchanged bit-for-bit.

    Both kinds take one step body at smoothing s: EPSILON * max|g| of the
    window for TV, formed at the first step and kept, select_delta's median
    of the current iterate at every Huber step. A step calls the kind's
    gradient function, then backtracking_step with the gradient, -0 outside
    the support, and the kind's value function. The accepted trial is the
    next iterate: its Gradient, penalty value and smoothed modulus r are the
    next step's `grad`, `p0` and `scale`, except that after select_delta the
    value function recomputes r and `p0` at the new delta. An s with s**2
    not >= 16 n / (largest float64), n the window's pixels, ends the block:
    no step of either kind fits in float64. On an all-zero or NaN window TV's
    s is 0 or NaN, and Huber's delta 1 gives no step. An all-support window
    is region None.

    The window is copied once, and an accepted trial swaps with the one
    trial array; the window-sized arrays are allocated once per call.

    An overflow anywhere in the block, the first gradient included, raises
    FloatingPointError (numpy's own message).
    """
    f = np.asarray(field, np.complex128)
    if out is None:
        out = np.empty_like(f)
    np.copyto(out, f)
    if spec.kind == "none":
        return out
    f, window = _window_of(f, region)
    # np.array copies even a C-contiguous window: the iterate becomes a trial buffer.
    sub = np.array(f[window.rows, window.cols], order="C")
    inside = window.mask  # None if all of the window is support
    outside = None if inside is None else ~inside
    minus_zero = -np.complex128(0)  # the gradient outside the support, see backtracking_step
    # The window's own window, or None if all support: penalty calls crop nothing.
    local = None if inside is None else SupportWindow(sub.shape, slice(None), slice(None), inside)
    tv = spec.kind == "tv"
    value, gradient_fn = (smoothed_tv_value, tv_gradient) if tv else (huber_value, huber_gradient)
    # For s**2 at or above this no step overflows: 1/r <= 1/s, and |d| is at
    # most 2 + sqrt(2) for TV, (2 + sqrt(2)) / delta for Huber, at every pixel
    min_s_sq = 16 * sub.size / np.finfo(np.float64).max

    trial, gradient = np.empty_like(sub), np.empty_like(sub)
    per_pixel = np.empty(sub.shape, np.float64)
    last = None

    def penalty(g) -> float:
        """Penalty of a line-search trial. Its Gradient and smoothed modulus
        overwrite `grad` and `per_pixel`, which the step no longer reads."""
        nonlocal last
        _fill_gradient(g, grad)
        last = value(g, s, local, grad, out=per_pixel)
        return last

    # Left to numpy's warning, an overflow such as an infinite ||d||^2 would
    # turn every step into t = 0 and the run would go on as if it converged.
    with np.errstate(over="raise"):
        grad = gradient_of(sub)
        for step in range(spec.n_inner_steps):
            if step == 0 or not tv:
                s = EPSILON * float(np.max(np.abs(sub))) if tv else select_delta(sub, local, grad)
                if not s * s >= min_s_sq:  # flat, underflowed or NaN
                    break
                p0 = value(sub, s, local, grad, out=per_pixel)
            gradient_fn(sub, s, grad, scale=per_pixel, out=gradient)
            if outside is not None:
                np.copyto(gradient, minus_zero, where=outside)
            if not gradient.any() or backtracking_step(sub, gradient, penalty, p0=p0,
                                                       out=trial) == 0.0:
                break
            # t > 0: the last penalty call was on the accepted trial, now in
            # `trial`, and left its Gradient in `grad` and its smoothed
            # modulus in `per_pixel`.
            sub, trial, p0 = trial, sub, last

    np.copyto(out[window.rows, window.cols], sub, where=True if inside is None else inside)
    return out
