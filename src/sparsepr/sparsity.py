"""Sparsity penalties and the in-support gradient-descent step.

Total variation of a complex image is the L1 norm of its gradient
magnitude, sum_i sqrt(|dx g_i|^2 + |dy g_i|^2). The Huber-style
alternative, sum_i [sqrt(1 + |grad g_i|^2 / delta^2) - 1], behaves like
TV/delta for gradients much larger than delta and like a quadratic
smoothness penalty below it.

Discretization: forward differences with replicate (Neumann) boundaries,
so the last column of dx and last row of dy are zero. The divergence is
the exact negative adjoint of this gradient, which makes the functional
gradients pass finite-difference checks to machine-level accuracy.

A function that takes a keyword `out` writes there what it would
otherwise allocate and returns it, with the same bits; `out` must not
overlap an input. A penalty value's `out` receives the per-pixel terms
it sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grids import SettingError, Workspace, as_mask, bounding_box, check_number, check_same_shape

# Relative floor applied when scaling the TV smoothing epsilon.
EPSILON_FLOOR = 1e-12
# Armijo line search: sufficient-decrease fraction, step shrink factor
# and the number of shrinks tried before giving up.
LS_ALPHA = 0.3
LS_SHRINK = 0.5
MAX_BACKTRACK_STEPS = 60


@dataclass(frozen=True)
class PenaltySpec:
    """Choice of sparsity penalty and its descent parameters.

    kind: "none", "tv" or "huber".
    n_inner_steps: gradient-descent steps per outer iteration.
    epsilon: TV smoothing, relative to the field's max modulus.
    delta_rule: "median" (recomputed each descent step) or a fixed real
        number (not a bool), stored as a float.
    t_init: the line search's first trial step (see backtracking_step).

    The default t_init is deliberately small. Inside the retrieval loop
    the descent block runs every outer iteration, so a gentle nudge per
    step regularizes without flattening genuine edges; large trial steps
    let the line search accept moves that crush the penalty below that
    of the true object and stall the Fourier-magnitude fit.
    """

    kind: str = "none"
    n_inner_steps: int = 30
    epsilon: float = 1e-8
    delta_rule: str | float = "median"
    t_init: float = 0.02

    def __post_init__(self):
        if self.kind not in ("none", "tv", "huber"):
            raise SettingError(f"unknown penalty kind {self.kind!r}")
        check_number("n_inner_steps", self.n_inner_steps, integer=True)
        check_number("epsilon", self.epsilon)
        check_number("t_init", self.t_init)
        if self.n_inner_steps < 0:
            raise SettingError("n_inner_steps must be >= 0")
        if not self.epsilon > 0:
            raise SettingError("epsilon must be > 0")
        if not self.t_init > 0:
            raise SettingError("t_init must be > 0")
        if isinstance(self.delta_rule, str):
            if self.delta_rule != "median":
                raise SettingError(f"unknown delta rule {self.delta_rule!r}")
        else:
            check_number("fixed delta", self.delta_rule)
            delta = float(self.delta_rule)
            # Every Huber term divides by delta**2: a zero or subnormal square makes it inf.
            if not (delta > 0 and delta * delta >= np.finfo(float).tiny):
                raise SettingError(f"fixed delta must be > 0 with a normal square, got {delta!r}")
            object.__setattr__(self, "delta_rule", delta)


def _gradient_into(f, gx, gy):
    """discrete_gradient's stencil, unchecked: C-contiguous arrays of one shape."""
    # x-differences on the flattened rows, from f shifted into gx: its last
    # column holds 0, so the pair that wraps to the next row is 0 - f.
    flat = gx.reshape(-1)
    flat[:-1] = f.reshape(-1)[1:]
    gx[:, -1:] = 0
    flat -= f.reshape(-1)
    gx[:, -1:] = 0
    np.subtract(f[1:, :], f[:-1, :], out=gy[:-1, :])
    gy[-1:, :] = 0
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
        out.reshape(-1)[1:] -= gx.reshape(-1)[:-1]
        np.add(gx[:, 0], 0, out=out[:, 0])
    else:
        out[...] = 0
    if out.shape[0] > 1:
        out[0, :] += gy[0, :]
        out[1:-1, :] += gy[1:-1, :] - gy[:-2, :]
        out[-1, :] -= gy[-2, :]
    return out


def discrete_gradient(field) -> tuple[np.ndarray, np.ndarray]:
    """Forward-difference gradient (gx, gy); zero at the far edges."""
    f = np.ascontiguousarray(field)
    return _gradient_into(f, np.empty_like(f), np.empty_like(f))


def discrete_divergence(gx, gy) -> np.ndarray:
    """Negative adjoint of discrete_gradient: <grad f, p> == -<f, div p>."""
    gx = np.ascontiguousarray(gx)
    gy = np.asarray(gy)
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
    """The field as an array and the window of `region` (whole grid if None)."""
    f = np.asarray(field)
    if region is None:
        return f, SupportWindow(f.shape, slice(None), slice(None), None)
    window = region if isinstance(region, SupportWindow) else support_window(region)
    if f.shape != window.shape:
        raise ValueError(f"shape mismatch: {sorted({f.shape, window.shape})}")
    return f, window


def _restrict(field, region):
    """Bounding-box view of the field and its window's mask."""
    if region is None:
        return np.asarray(field), None
    f, window = _window_of(field, region)
    return f[window.rows, window.cols], window.mask


class Gradient(NamedTuple):
    """discrete_gradient of a field with its squared modulus |gx|^2 + |gy|^2.

    Every penalty value and gradient function takes one as `grad`: a
    caller that already holds the gradient of the array it evaluates
    (for a penalty value, of the region's window of that array) passes it
    and the function skips the differencing.
    """

    gx: np.ndarray
    gy: np.ndarray
    mag_sq: np.ndarray


def gradient_of(field, *, out: Gradient | None = None) -> Gradient:
    """The field's Gradient (`out` is a Gradient of C-contiguous arrays)."""
    f = np.ascontiguousarray(field)
    gx, gy = _gradient_into(f, *((np.empty_like(f), np.empty_like(f)) if out is None else out[:2]))
    mag_sq = np.abs(gx, out=None if out is None else out.mag_sq)
    np.square(mag_sq, out=mag_sq)
    gy_sq = np.abs(gy)
    mag_sq += np.square(gy_sq, out=gy_sq)
    return Gradient(gx, gy, mag_sq)


def _region_sum(values, submask) -> float:
    """Row-major sum of `values` where `submask` is true (all if None), as np.sum reduces."""
    return float(np.add.reduce(values.ravel() if submask is None else values[submask]))


def tv_value(field, region=None) -> float:
    """Total variation over `region` (whole grid if None).

    Gradients are taken on the region's bounding-box window so that
    outside-support content never leaks into the reported value.
    """
    sub, submask = _restrict(field, region)
    mag_sq = gradient_of(sub).mag_sq
    return _region_sum(np.sqrt(mag_sq, out=mag_sq), submask)


def smoothed_tv_value(field, epsilon, region=None, grad: Gradient | None = None, *,
                      out=None) -> float:
    """TV with the modulus smoothed to sqrt(|grad|^2 + eps^2).

    This is the exact antiderivative of `tv_gradient`, used by the line
    search and the finite-difference gradient checks. Its per-pixel terms
    are the `scale` that tv_gradient takes.
    """
    sub, submask = _restrict(field, region)
    if grad is None:
        grad = gradient_of(sub)
    smoothed = np.add(grad.mag_sq, epsilon**2, out=out)
    return _region_sum(np.sqrt(smoothed, out=smoothed), submask)


def _divided_divergence(grad: Gradient, scale, out) -> np.ndarray:
    """discrete_divergence(gx / scale, gy / scale) for a positive real `scale`.

    numpy's complex quotient by c + 0j is (a + b*0) * (1/c) part by part, so
    one reciprocal and two real products give its bits up to the sign of a
    zero, on which discrete_divergence's output does not depend. The
    quotients are new contiguous arrays, so they skip its checks; a
    strided `out` receives a copy of the kernel's result.
    """
    if not np.iscomplexobj(grad.gx):
        parts = [np.divide(g, scale, order="C") for g in grad[:2]]
    else:
        inv = np.reciprocal(scale)
        parts = [np.empty(g.shape, np.result_type(g, inv)) for g in grad[:2]]
        for g, part in zip(grad, parts):
            np.multiply(g.real, inv, out=part.real)
            np.multiply(g.imag, inv, out=part.imag)
    if out is None or out.flags.c_contiguous:
        return _divergence_into(*parts, np.empty_like(parts[0]) if out is None else out)
    np.copyto(out, _divergence_into(*parts, np.empty_like(parts[0])))
    return out


def tv_gradient(field, epsilon, grad: Gradient | None = None, *, scale=None,
                out=None) -> np.ndarray:
    """Functional gradient of the smoothed TV: -div(grad f / sqrt(|grad f|^2 + eps^2)).

    A caller holding sqrt(|grad f|^2 + eps^2) of this gradient, as
    smoothed_tv_value's `out` leaves it, passes it as `scale`.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be > 0")
    if grad is None:
        grad = gradient_of(field)
    if scale is None:
        scale = np.sqrt(grad.mag_sq + epsilon**2)
    out = _divided_divergence(grad, scale, out)
    return np.negative(out, out=out)


def _huber_scale(mag_sq, delta, out=None) -> np.ndarray:
    """sqrt(mag_sq / delta**2 + 1), Huber's per-pixel scale, in one operation order."""
    scale = np.divide(mag_sq, delta**2, out=out)
    scale += 1.0
    return np.sqrt(scale, out=scale)


def huber_value(field, delta, region=None, grad: Gradient | None = None, *,
                out=None) -> float:
    """Huber-style penalty sum of sqrt(1 + |grad g|^2/delta^2) - 1 over `region`."""
    if not delta > 0:
        raise ValueError("delta must be > 0")
    sub, submask = _restrict(field, region)
    if grad is None:
        grad = gradient_of(sub)
    per_pixel = _huber_scale(grad.mag_sq, delta, out)
    per_pixel -= 1.0
    return _region_sum(per_pixel, submask)


def huber_gradient(field, delta, grad: Gradient | None = None, *, scale=None,
                   out=None) -> np.ndarray:
    """Functional gradient of the Huber penalty.

    -(1/delta^2) div(grad f / sqrt(1 + |grad f|^2/delta^2)); the
    denominator is >= 1 so no extra smoothing is needed. A caller holding it
    as sqrt(mag_sq / delta**2 + 1), in huber_value's order, passes it as `scale`.
    """
    if not delta > 0:
        raise ValueError("delta must be > 0")
    if grad is None:
        grad = gradient_of(field)
    if scale is None:
        scale = _huber_scale(grad.mag_sq, delta)
    out = _divided_divergence(grad, scale, out)
    np.negative(out, out=out)
    out /= delta**2
    return out


def select_delta(field, region=None, grad: Gradient | None = None) -> float:
    """Median gradient magnitude over the region's pixels.

    One partial selection of a copy of the n squared moduli sq = |grad|^2 at
    k = (n-1)//2 finds the middle, and only it is square-rooted: sqrt(sq[k]),
    or for even n (sqrt(sq[k]) + sqrt(min of sq above k)) / 2. sqrt is
    monotone and correctly rounded, so these are the order statistics of
    |grad|, and the result has the bits of numpy's median of |grad|, whose
    mean of the middle pair also adds before it halves.

    Falls back to 1e-6 * (max gradient magnitude, or 1 if that is zero or
    NaN) when the median itself is zero, e.g. for a constant field, or when
    a sample is NaN.
    """
    sub, submask = _restrict(field, region)
    if grad is None:
        grad = gradient_of(sub)
    sq = grad.mag_sq.flatten() if submask is None else grad.mag_sq[submask]  # copies
    if not sq.size:
        return 1e-6
    k = (sq.size - 1) // 2
    sq.partition(k)
    # NaN sorts last, so a NaN sample makes sq[k] or `above` NaN.
    above = sq[k + 1:].min(initial=np.inf)
    med = np.sqrt(sq[k]) if sq.size % 2 else (np.sqrt(sq[k]) + np.sqrt(above)) / 2
    if med > 0 and not np.isnan(above):
        return float(med)
    peak = float(np.sqrt(sq.max()))
    return 1e-6 * (peak if peak > 0 else 1.0)


def backtracking_step(field, gradient, penalty, spec: PenaltySpec, p0=None, *,
                      out=None) -> float:
    """Armijo backtracking along minus `gradient`, the penalty's gradient.

    Tries t = t0 * LS_SHRINK^k for k = 0..60, where t0 is t_init rescaled
    by 1/max(1, max|gradient|) to keep the first trial comparable across
    image scales. Returns the first t with
    penalty(field - t*g) <= penalty(field) - LS_ALPHA * t * ||g||^2,
    or 0.0 if none qualifies (no progress possible at this resolution).
    A caller that already knows penalty(field) passes it as `p0`, which
    saves one evaluation; penalty is then called on trial points only.

    A trial is field + (-t)*g, -t of g's type: for complex g, -t - 0j, whose
    four real products with g are those of t + 0j with -g. So each trial is
    field + t*(-g) bit for bit, signed zeros too; a part of g held at -0
    (-0 - 0j) steps as a part of -g held at +0.

    Each trial is written into `out`, if given. When it returns t > 0, its
    last call to `penalty` was on the accepted trial, which is then in
    `out`; sparsity_descent relies on this.
    """
    g = np.asarray(gradient)
    scalar = np.result_type(g, 1.0).type
    g_abs = np.abs(g)
    g_max = float(np.maximum.reduce(g_abs, axis=None)) if g.size else 0.0
    g_sq = float(np.add.reduce(np.square(g_abs, out=g_abs), axis=None))
    if p0 is None:
        p0 = penalty(field)
    t = spec.t_init / max(1.0, g_max)
    for _ in range(MAX_BACKTRACK_STEPS + 1):
        trial = np.add(field, np.multiply(-scalar(t), g, out=out), out=out)
        if penalty(trial) <= p0 - LS_ALPHA * t * g_sq:
            return t
        t *= LS_SHRINK
    return 0.0


def sparsity_descent(field, region, spec: PenaltySpec, *, out=None,
                     work: Workspace | None = None) -> np.ndarray:
    """Run spec.n_inner_steps penalty-descent steps on the in-support pixels.

    Work happens on the region's bounding-box window (`region` is a mask
    or a SupportWindow); only pixels where the mask is true are updated,
    everything else is returned unchanged bit-for-bit. For the Huber
    penalty, delta is recomputed from the current iterate at every step.

    A step calls tv_gradient (or select_delta and huber_gradient), then
    backtracking_step with the gradient, -0 outside the support, and the
    penalty's value function. The accepted trial is the next iterate: its
    Gradient and, for TV, its penalty value and smoothed modulus are the next
    step's `grad`, `p0` and `scale`; for Huber one _huber_scale makes `scale`
    and, less 1, the terms of `p0`. An all-support window is region None.

    The window-sized arrays the steps write come from `work`, so a caller
    that passes the same Workspace to every call allocates them once.

    An overflow in a step raises FloatingPointError (numpy's own message).
    """
    f = np.asarray(field)
    if out is None:
        out = np.empty_like(f)
    np.copyto(out, f)
    if spec.kind == "none":
        return out
    f, window = _window_of(f, region)
    sub = f[window.rows, window.cols]
    inside = window.mask  # None if all of the window is support
    outside = None if inside is None else ~inside
    # The window's own window, or None if all support: penalty calls crop nothing.
    local = None if inside is None else SupportWindow(sub.shape, slice(None), slice(None), inside)
    tv = spec.kind == "tv"
    if tv:
        eps = max(spec.epsilon * float(np.max(np.abs(sub))), EPSILON_FLOOR)
    elif spec.delta_rule != "median":
        delta = spec.delta_rule

    if work is None:
        work = Workspace()
    dtype = np.result_type(sub, 1.0)
    real = np.finfo(dtype).dtype

    def buffer(name, kind=dtype):
        return work.array("sparsity_descent." + name, sub.shape, kind)

    # The line search reads `sub` while it writes a trial, so the iterate
    # alternates between two arrays and never lands in the caller's field.
    trial, spare = buffer("iterate_a"), buffer("iterate_b")
    gradient = buffer("gradient")
    per_pixel = buffer("per_pixel", real)
    grad = gradient_of(sub, out=Gradient(buffer("gx"), buffer("gy"), buffer("mag_sq", real)))
    last = None

    def penalty(g) -> float:
        """Penalty of a line-search trial. Its Gradient and per-pixel values
        overwrite `grad` and `per_pixel`, which the step no longer reads."""
        nonlocal last
        gradient_of(g, out=grad)
        if tv:
            last = smoothed_tv_value(g, eps, local, grad, out=per_pixel)
        else:
            last = huber_value(g, delta, local, grad, out=per_pixel)
        return last

    # Left to numpy's warning, an overflow such as an infinite ||d||^2 would
    # turn every step into t = 0 and the run would go on as if it converged.
    with np.errstate(over="raise"):
        p0 = smoothed_tv_value(sub, eps, local, grad, out=per_pixel) if tv else None
        for _ in range(spec.n_inner_steps):
            if tv:
                tv_gradient(sub, eps, grad, scale=per_pixel, out=gradient)
            else:
                if spec.delta_rule == "median":
                    delta = select_delta(sub, local, grad)
                huber_gradient(sub, delta, grad, scale=_huber_scale(grad.mag_sq, delta, per_pixel),
                               out=gradient)
                p0 = _region_sum(np.subtract(per_pixel, 1.0, out=per_pixel), inside)
            if outside is not None:
                np.copyto(gradient, -dtype.type(0), where=outside)  # see backtracking_step
            if not gradient.any() or backtracking_step(sub, gradient, penalty, spec, p0=p0,
                                                       out=trial) == 0.0:
                break
            # t > 0: the last penalty call was on the accepted trial, now in
            # `trial`, and left its Gradient in `grad` and, for TV, its smoothed
            # modulus in `per_pixel`.
            sub, p0 = trial, last
            trial, spare = spare, trial

    np.copyto(out[window.rows, window.cols], sub, where=True if inside is None else inside)
    return out
