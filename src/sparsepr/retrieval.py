"""Hybrid input-output phase retrieval, plain and with a sparsity step.

One engine, `run_hio`, runs every penalty kind: plain HIO is the sparse
loop with no descent block between the support update and the
Fourier-magnitude replacement.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from .fourier import forward_transform, impose_magnitude, inverse_transform
from .grids import (SettingError, as_magnitude, as_mask, check_number, check_same_shape,
                    l2_norm)
from .sparsity import (PenaltySpec, _window_of, gradient_of, huber_value, select_delta,
                       sparsity_descent, support_window, tv_value)


@dataclass(frozen=True)
class RetrievalConfig:
    beta: float = 0.9
    n_iterations: int = 500
    seed: int = 0
    penalty: PenaltySpec = dc_field(default_factory=PenaltySpec)

    def __post_init__(self):
        check_number("beta", self.beta)
        check_number("n_iterations", self.n_iterations, integer=True)
        check_number("seed", self.seed, integer=True)
        if not 0 < self.beta <= 1:
            raise SettingError("beta must be in (0, 1]")
        if self.n_iterations < 1:
            raise SettingError("n_iterations must be >= 1")
        if self.seed < 0:
            raise SettingError("seed must be >= 0")


@dataclass
class RunReport:
    """Outputs of a single retrieval run."""

    final_field: np.ndarray
    penalty_trace: np.ndarray
    fourier_residual_trace: np.ndarray
    seed: int
    wall_time: float


def random_phase_init(width: int, height: int, seed: int) -> np.ndarray:
    """Seeded random phase grid, i.i.d. uniform on [0, 2*pi)."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 2.0 * np.pi, size=(height, width))


def hio_update(g_prev, g_hat, mask, beta: float, *, out=None) -> np.ndarray:
    """Standard HIO support update: keep g_hat inside the support,
    negative feedback g_prev - beta*g_hat outside it. `out`, if given,
    receives the result and must overlap neither field."""
    g_prev = np.asarray(g_prev)
    g_hat = np.asarray(g_hat)
    m = as_mask(mask)
    check_same_shape(g_prev, g_hat, m)
    if not 0 < beta <= 1:
        raise ValueError("beta must be in (0, 1]")
    if out is None:
        out = np.empty(m.shape, dtype=np.result_type(g_prev, g_hat, beta))
    np.multiply(beta, g_hat, out=out)
    np.subtract(g_prev, out, out=out)
    np.copyto(out, g_hat, where=m)
    return out


def zero_outside_support(field, mask) -> np.ndarray:
    f = np.asarray(field)
    m = as_mask(mask)
    check_same_shape(f, m)
    return np.where(m, f, 0)


def penalty_value(field, region, spec: PenaltySpec) -> float:
    """In-support penalty of `field` for `spec`: the Huber penalty at the
    median delta for kind "huber", total variation for any other kind.

    `region` is a mask or a SupportWindow. This is the value of a run's
    penalty trace and of every reported final penalty. For Huber, the
    window's gradient is taken once and serves both select_delta and
    huber_value.
    """
    if spec.kind != "huber":
        return tv_value(field, region)
    f, window = _window_of(field, region)
    grad = gradient_of(f[window.rows, window.cols])
    return huber_value(field, select_delta(field, window, grad), window, grad)


def run_hio(magnitude, mask, config: RetrievalConfig, *,
            initial_mask=None, initial_iterations: int = 0) -> RunReport:
    """HIO with the object support as the constraint, for every penalty kind.

    Plain HIO when the penalty kind is "none" or n_inner_steps is 0;
    otherwise n_inner_steps penalty-descent steps on the in-support region
    follow each support update, which breaks the twin-image stagnation.

    `initial_mask` replaces the support in the support update and the
    descent for the first `initial_iterations` iterations (the classic
    twin-avoidance truncation); the full mask gives the penalty trace and
    the final zeroing.
    """
    check_number("initial_iterations", initial_iterations, integer=True)
    if initial_iterations < 0:
        raise SettingError("initial_iterations must be >= 0")
    if initial_iterations > 0 and initial_mask is None:
        raise SettingError("initial_iterations > 0 needs an initial_mask")
    m = as_mask(mask)
    check_same_shape(magnitude, m)
    mag = as_magnitude(magnitude, "magnitude data")
    # The residual is divided by this norm: squares that all underflow make
    # it 0, one that overflows makes it inf, and no iteration could be scored.
    with np.errstate(over="ignore"):
        mag_norm = l2_norm(mag)
    if not 0 < mag_norm < np.inf:
        raise ValueError("magnitude data is all zero" if not mag.any() else
                         f"magnitude data has a norm of {mag_norm} in float64; rescale it")
    # Masks are checked and cut to their windows once per run; the loop
    # hands the windows to the descent and the penalty trace.
    window = support_window(m)
    initial_window = None
    if initial_mask is not None:
        initial_mask = as_mask(initial_mask)
        check_same_shape(initial_mask, m)
        initial_window = support_window(initial_mask)

    start = time.perf_counter()
    height, width = mag.shape
    phase = random_phase_init(width, height, config.seed)
    # The run's workspace: every grid-sized array the loop writes is one
    # of these, so an iteration allocates no grid-sized array.
    spectrum = mag * np.exp(1j * phase)
    g = np.zeros_like(spectrum)
    g_next = np.empty_like(spectrum)  # g and g_next swap every stage
    transform = np.empty_like(spectrum)  # g_hat, then the forward transform
    modulus = np.empty_like(mag)
    deviation = np.empty_like(mag)  # |G| - magnitude
    squares = np.empty_like(mag)
    penalty_trace = np.empty(config.n_iterations)
    residual_trace = np.empty(config.n_iterations)
    do_descent = config.penalty.kind != "none" and config.penalty.n_inner_steps > 0

    for n in range(config.n_iterations):
        step_mask, step_window = m, window
        if initial_mask is not None and n < initial_iterations:
            step_mask, step_window = initial_mask, initial_window
        g_hat = inverse_transform(spectrum, out=transform)
        g, g_next = hio_update(g, g_hat, step_mask, config.beta, out=g_next), g
        if do_descent:
            try:
                g, g_next = sparsity_descent(g, step_window, config.penalty, out=g_next), g
            except FloatingPointError as exc:  # an overflow in a descent step
                raise FloatingPointError(
                    f"{exc} in the descent at iteration {n + 1} of {config.n_iterations}"
                ) from exc
        try:
            big_g = forward_transform(g, out=transform)
        except ValueError as exc:
            # g has the grid's shape, so the only objection left is a
            # non-finite sample written by the support update or the descent.
            raise FloatingPointError(
                f"non-finite field at iteration {n + 1} of {config.n_iterations}"
            ) from exc
        np.abs(big_g, out=modulus)
        np.subtract(modulus, mag, out=deviation)
        residual_trace[n] = l2_norm(deviation, out=squares) / mag_norm
        # A NaN or inf anywhere in the spectrum makes the residual non-finite,
        # so a blow-up stops the run at the iteration where it happens.
        if not np.isfinite(residual_trace[n]):
            raise FloatingPointError(
                f"non-finite Fourier residual at iteration {n + 1} of {config.n_iterations}"
            )
        penalty_trace[n] = penalty_value(g, window, config.penalty)
        if not np.isfinite(penalty_trace[n]):
            raise FloatingPointError(
                f"non-finite penalty at iteration {n + 1} of {config.n_iterations}")
        spectrum = impose_magnitude(big_g, mag, out=spectrum, modulus=modulus)

    return RunReport(
        final_field=zero_outside_support(g, m),
        penalty_trace=penalty_trace,
        fourier_residual_trace=residual_trace,
        seed=config.seed,
        wall_time=time.perf_counter() - start,
    )


# The sparse variant's old name, kept for existing callers. An alias, not a
# wrapper, so a wrapper installed on either name sees one call per run.
run_sparse_hio = run_hio
