"""Hybrid input-output phase retrieval, plain and with a sparsity step.

Both engines run the same outer loop; the sparse variant inserts a block
of penalty-descent steps on the in-support region between the support
update and the Fourier-magnitude replacement, which is what breaks the
twin-image stagnation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from .fourier import forward_transform, impose_magnitude, inverse_transform
from .grids import as_mask, check_number, check_same_shape, l2_norm
from .sparsity import (PenaltySpec, huber_value, select_delta, sparsity_descent,
                       support_window, tv_value)


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
            raise ValueError("beta must be in (0, 1]")
        if self.n_iterations < 1:
            raise ValueError("n_iterations must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


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


def hio_update(g_prev, g_hat, mask, beta: float) -> np.ndarray:
    """Standard HIO support update: keep g_hat inside the support,
    negative feedback g_prev - beta*g_hat outside it."""
    g_prev = np.asarray(g_prev)
    g_hat = np.asarray(g_hat)
    m = as_mask(mask)
    check_same_shape(g_prev, g_hat, m)
    if not 0 < beta <= 1:
        raise ValueError("beta must be in (0, 1]")
    return np.where(m, g_hat, g_prev - beta * g_hat)


def zero_outside_support(field, mask) -> np.ndarray:
    f = np.asarray(field)
    m = as_mask(mask)
    check_same_shape(f, m)
    return np.where(m, f, 0)


def penalty_value(field, region, spec: PenaltySpec) -> float:
    """In-support penalty of `field` for `spec`: the Huber penalty with the
    spec's delta rule for kind "huber", total variation for any other kind.

    `region` is a mask or a SupportWindow. This is the value of a run's
    penalty trace and of every reported final penalty.
    """
    if spec.kind == "huber":
        delta = select_delta(field, region) if spec.delta_rule == "median" else spec.delta_rule
        return huber_value(field, delta, region)
    return tv_value(field, region)


def _run_loop(magnitude, mask, config: RetrievalConfig, *,
              initial_mask=None, initial_iterations: int = 0) -> RunReport:
    mag = np.asarray(magnitude, dtype=np.float64)
    m = as_mask(mask)
    check_same_shape(mag, m)
    if np.any(mag < 0) or not np.all(np.isfinite(mag)):
        raise ValueError("magnitude data must be nonnegative and finite")
    if not mag.any():
        raise ValueError("magnitude data is all zero")
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
    spectrum = mag * np.exp(1j * phase)
    g = np.zeros_like(spectrum)
    penalty_trace = np.empty(config.n_iterations)
    residual_trace = np.empty(config.n_iterations)
    do_descent = config.penalty.kind != "none" and config.penalty.n_inner_steps > 0
    mag_norm = l2_norm(mag)

    for n in range(config.n_iterations):
        step_mask, step_window = m, window
        if initial_mask is not None and n < initial_iterations:
            step_mask, step_window = initial_mask, initial_window
        g_hat = inverse_transform(spectrum)
        g = hio_update(g, g_hat, step_mask, config.beta)
        if do_descent:
            g = sparsity_descent(g, step_window, config.penalty)
        try:
            big_g = forward_transform(g)
        except ValueError as exc:
            # g has the grid's shape, so the only objection left is a
            # non-finite sample written by the support update or the descent.
            raise FloatingPointError(
                f"non-finite field at iteration {n + 1} of {config.n_iterations}"
            ) from exc
        residual_trace[n] = l2_norm(np.abs(big_g) - mag) / mag_norm
        # A NaN or inf anywhere in the spectrum makes the residual non-finite,
        # so a blow-up stops the run at the iteration where it happens.
        if not np.isfinite(residual_trace[n]):
            raise FloatingPointError(
                f"non-finite Fourier residual at iteration {n + 1} of {config.n_iterations}"
            )
        penalty_trace[n] = penalty_value(g, window, config.penalty)
        spectrum = impose_magnitude(big_g, mag)

    return RunReport(
        final_field=zero_outside_support(g, m),
        penalty_trace=penalty_trace,
        fourier_residual_trace=residual_trace,
        seed=config.seed,
        wall_time=time.perf_counter() - start,
    )


def run_hio(magnitude, mask, config: RetrievalConfig, *,
            initial_mask=None, initial_iterations: int = 0) -> RunReport:
    """Plain HIO with the object support as the only constraint.

    `initial_mask`/`initial_iterations` optionally substitute a truncated
    support for the first few iterations (the classic twin-avoidance
    heuristic); the full mask is used from then on and for the final
    zeroing.
    """
    if config.penalty.kind != "none":
        raise ValueError("run_hio requires penalty kind 'none'")
    return _run_loop(magnitude, mask, config,
                     initial_mask=initial_mask, initial_iterations=initial_iterations)


def run_sparse_hio(magnitude, mask, config: RetrievalConfig) -> RunReport:
    """Modified HIO: per iteration, inverse transform, support update,
    n_inner_steps penalty-descent steps on the in-support region, forward
    transform, magnitude replacement."""
    if config.penalty.kind not in ("tv", "huber"):
        raise ValueError("run_sparse_hio requires penalty kind 'tv' or 'huber'")
    return _run_loop(magnitude, mask, config)
