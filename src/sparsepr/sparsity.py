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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grids import as_mask, bounding_box, check_number, check_same_shape

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
            raise ValueError(f"unknown penalty kind {self.kind!r}")
        check_number("n_inner_steps", self.n_inner_steps, integer=True)
        check_number("epsilon", self.epsilon)
        check_number("t_init", self.t_init)
        if self.n_inner_steps < 0:
            raise ValueError("n_inner_steps must be >= 0")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be > 0")
        if not self.t_init > 0:
            raise ValueError("t_init must be > 0")
        if isinstance(self.delta_rule, str):
            if self.delta_rule != "median":
                raise ValueError(f"unknown delta rule {self.delta_rule!r}")
        else:
            check_number("fixed delta", self.delta_rule)
            if not self.delta_rule > 0:
                raise ValueError("fixed delta must be > 0")
            object.__setattr__(self, "delta_rule", float(self.delta_rule))


def discrete_gradient(field) -> tuple[np.ndarray, np.ndarray]:
    """Forward-difference gradient (gx, gy); zero at the far edges."""
    f = np.asarray(field)
    gx = np.zeros_like(f)
    gy = np.zeros_like(f)
    gx[:, :-1] = f[:, 1:] - f[:, :-1]
    gy[:-1, :] = f[1:, :] - f[:-1, :]
    return gx, gy


def discrete_divergence(gx, gy) -> np.ndarray:
    """Negative adjoint of discrete_gradient: <grad f, p> == -<f, div p>."""
    gx = np.asarray(gx)
    gy = np.asarray(gy)
    check_same_shape(gx, gy)
    out = np.zeros_like(gx)
    # Last column of gx / last row of gy never contribute to <grad f, p>,
    # so the adjoint ignores them; along an axis of length 1 nothing does.
    if out.shape[1] > 1:
        out[:, 0] += gx[:, 0]
        out[:, 1:-1] += gx[:, 1:-1] - gx[:, :-2]
        out[:, -1] -= gx[:, -2]
    if out.shape[0] > 1:
        out[0, :] += gy[0, :]
        out[1:-1, :] += gy[1:-1, :] - gy[:-2, :]
        out[-1, :] -= gy[-2, :]
    return out


class SupportWindow(NamedTuple):
    """A support mask cut to its bounding box.

    `shape` is the full grid's shape, `rows`/`cols` slice the window out
    of it and `mask` is the support inside the window. Every penalty
    function accepts one wherever it accepts a region mask; a caller that
    evaluates penalties many times on one support builds it once with
    `support_window` and skips the per-call mask checks and cropping.
    """

    shape: tuple
    rows: slice
    cols: slice
    mask: np.ndarray


def support_window(region) -> SupportWindow:
    """Validate a support mask and cut it to its bounding-box window."""
    m = as_mask(region)
    x0, y0, x1, y1 = bounding_box(m)
    rows, cols = slice(y0, y1 + 1), slice(x0, x1 + 1)
    return SupportWindow(m.shape, rows, cols, m[rows, cols])


def _window_of(field, region) -> tuple[np.ndarray, SupportWindow]:
    """The field as an array and the window of `region` (whole grid if None)."""
    f = np.asarray(field)
    if region is None:
        return f, SupportWindow(f.shape, slice(None), slice(None), np.ones(f.shape, dtype=bool))
    window = region if isinstance(region, SupportWindow) else support_window(region)
    if f.shape != window.shape:
        raise ValueError(f"shape mismatch: {sorted({f.shape, window.shape})}")
    return f, window


def _restrict(field, region):
    """Bounding-box view of the field and mask for in-support penalties."""
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


def gradient_of(field) -> Gradient:
    gx, gy = discrete_gradient(field)
    return Gradient(gx, gy, np.abs(gx) ** 2 + np.abs(gy) ** 2)


def tv_value(field, region=None) -> float:
    """Total variation over `region` (whole grid if None).

    Gradients are taken on the region's bounding-box window so that
    outside-support content never leaks into the reported value.
    """
    sub, submask = _restrict(field, region)
    return float(np.sum(np.sqrt(gradient_of(sub).mag_sq)[submask]))


def smoothed_tv_value(field, epsilon, region=None, grad: Gradient | None = None) -> float:
    """TV with the modulus smoothed to sqrt(|grad|^2 + eps^2).

    This is the exact antiderivative of `tv_gradient`, used by the line
    search and the finite-difference gradient checks.
    """
    sub, submask = _restrict(field, region)
    if grad is None:
        grad = gradient_of(sub)
    return float(np.sum(np.sqrt(grad.mag_sq + epsilon**2)[submask]))


def tv_gradient(field, epsilon, grad: Gradient | None = None) -> np.ndarray:
    """Functional gradient of the smoothed TV: -div(grad f / sqrt(|grad f|^2 + eps^2))."""
    if not epsilon > 0:
        raise ValueError("epsilon must be > 0")
    if grad is None:
        grad = gradient_of(field)
    scale = np.sqrt(grad.mag_sq + epsilon**2)
    return -discrete_divergence(grad.gx / scale, grad.gy / scale)


def huber_value(field, delta, region=None, grad: Gradient | None = None) -> float:
    """Huber-style penalty sum of sqrt(1 + |grad g|^2/delta^2) - 1 over `region`."""
    if not delta > 0:
        raise ValueError("delta must be > 0")
    sub, submask = _restrict(field, region)
    if grad is None:
        grad = gradient_of(sub)
    per_pixel = np.sqrt(1.0 + grad.mag_sq / delta**2) - 1.0
    return float(np.sum(per_pixel[submask]))


def huber_gradient(field, delta, grad: Gradient | None = None) -> np.ndarray:
    """Functional gradient of the Huber penalty.

    -(1/delta^2) div(grad f / sqrt(1 + |grad f|^2/delta^2)); the
    denominator is >= 1 so no extra smoothing is needed.
    """
    if not delta > 0:
        raise ValueError("delta must be > 0")
    if grad is None:
        grad = gradient_of(field)
    scale = np.sqrt(1.0 + grad.mag_sq / delta**2)
    return -discrete_divergence(grad.gx / scale, grad.gy / scale) / delta**2


def select_delta(field, region=None, grad: Gradient | None = None) -> float:
    """Median gradient magnitude over the region's pixels.

    Falls back to 1e-6 * (max gradient magnitude, or 1 if that is zero)
    when the median itself is zero, e.g. for a constant field.
    """
    sub, submask = _restrict(field, region)
    if grad is None:
        grad = gradient_of(sub)
    mags = np.sqrt(grad.mag_sq)[submask]
    med = float(np.median(mags))
    if med > 0:
        return med
    peak = float(mags.max()) if mags.size else 0.0
    return 1e-6 * (peak if peak > 0 else 1.0)


def backtracking_step(field, descent_dir, penalty, spec: PenaltySpec, p0=None) -> float:
    """Armijo backtracking along `descent_dir` (= minus the penalty gradient).

    Tries t = t0 * LS_SHRINK^k for k = 0..60, where t0 is t_init rescaled
    by 1/max(1, max|descent_dir|) to keep the first trial comparable
    across image scales. Returns the first t with
    penalty(field + t*d) <= penalty(field) - LS_ALPHA * t * ||d||^2,
    or 0.0 if none qualifies (no progress possible at this resolution).
    A caller that already knows penalty(field) passes it as `p0`, which
    saves one evaluation; penalty is then called on trial points only.

    When it returns t > 0, its last call to `penalty` was on the accepted
    trial field + t*d, so a penalty that records its argument holds the
    next iterate; sparsity_descent relies on this.
    """
    d = np.asarray(descent_dir)
    d_abs = np.abs(d)
    d_sq = float(np.sum(d_abs ** 2))
    if p0 is None:
        p0 = penalty(field)
    t = spec.t_init / max(1.0, float(np.max(d_abs)) if d.size else 0.0)
    for _ in range(MAX_BACKTRACK_STEPS + 1):
        if penalty(field + t * d) <= p0 - LS_ALPHA * t * d_sq:
            return t
        t *= LS_SHRINK
    return 0.0


def sparsity_descent(field, region, spec: PenaltySpec) -> np.ndarray:
    """Run spec.n_inner_steps penalty-descent steps on the in-support pixels.

    Work happens on the region's bounding-box window (`region` is a mask
    or a SupportWindow); only pixels where the mask is true are updated,
    everything else is returned unchanged bit-for-bit. For the Huber
    penalty, delta is recomputed from the current iterate at every step.

    A step is tv_gradient (or select_delta and huber_gradient) followed by
    backtracking_step with the penalty's value function. The accepted
    line-search trial is the next iterate, so its Gradient and, for TV
    (whose epsilon is fixed for the call), its penalty value carry over as
    that step's `grad` and `p0`: a step differences one array per trial.
    """
    if spec.kind == "none":
        return np.array(field, copy=True)
    f, window = _window_of(field, region)
    sub = f[window.rows, window.cols]
    inside = window.mask
    # The window's own window: `sub` is all of it, so penalty calls crop nothing.
    local = SupportWindow(sub.shape, slice(None), slice(None), inside)
    tv = spec.kind == "tv"
    if tv:
        eps = max(spec.epsilon * float(np.max(np.abs(sub))), EPSILON_FLOOR)
    elif spec.delta_rule != "median":
        delta = spec.delta_rule

    def penalty(g) -> float:
        """Penalty of a line-search trial; the trial is kept in `accepted`."""
        nonlocal accepted
        g_grad = gradient_of(g)
        if tv:
            value = smoothed_tv_value(g, eps, local, g_grad)
        else:
            value = huber_value(g, delta, local, g_grad)
        accepted = g, g_grad, value
        return value

    grad = gradient_of(sub)
    p0 = smoothed_tv_value(sub, eps, local, grad) if tv else None
    accepted = None
    for _ in range(spec.n_inner_steps):
        if tv:
            step = tv_gradient(sub, eps, grad)
        else:
            if spec.delta_rule == "median":
                delta = select_delta(sub, local, grad)
            step = huber_gradient(sub, delta, grad)
            p0 = huber_value(sub, delta, local, grad)
        direction = np.where(inside, -step, 0)
        if not direction.any() or backtracking_step(sub, direction, penalty, spec, p0=p0) == 0.0:
            break
        # t > 0: the last penalty call was the accepted trial sub + t*direction.
        sub, grad, p0 = accepted

    out = f.copy()
    out[window.rows, window.cols] = np.where(inside, sub, out[window.rows, window.cols])
    return out
