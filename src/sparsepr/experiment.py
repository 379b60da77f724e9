"""Phantom generation, twin-image metrics and multi-run statistics.

Phantoms are unit-amplitude pure phase objects on a centered square
support: a two-level blocky phase pattern (binary kind) and a smooth
random phase field with sharp-edged patches (gray kind). Both are
seeded and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import SettingError, as_mask, bounding_box, check_number, check_same_shape, l2_norm

TWIN_THRESHOLD = 0.35

# The phase levels of the two phantom kinds: the binary kind's two levels
# are 0 and BINARY_PHASE_STEP; the gray kind's phase spans [0, GRAY_PHASE_RANGE].
BINARY_PHASE_STEP = 2.0 * np.pi / 3.0
GRAY_PHASE_RANGE = 5.0 * np.pi / 6.0


@dataclass(frozen=True)
class PhantomSpec:
    image_size: int
    support_size: int
    kind: str = "binary"  # "binary" | "gray"
    pattern_seed: int = 0

    def __post_init__(self):
        if self.kind not in ("binary", "gray"):
            raise SettingError(f"unknown phantom kind {self.kind!r}")
        for name in ("image_size", "support_size", "pattern_seed"):
            check_number(name, getattr(self, name), integer=True)
        if self.pattern_seed < 0:
            raise SettingError("pattern_seed must be >= 0")
        if self.image_size % 2 or self.support_size % 2:
            raise SettingError("image_size and support_size must both be even")
        if not 0 < self.support_size < self.image_size / 2:
            raise SettingError(
                "support must be smaller than half the image size "
                f"(got {self.support_size} vs {self.image_size})"
            )


@dataclass(frozen=True)
class TwinMetrics:
    c_up: float
    c_twin: float
    twin_present: bool


@dataclass(frozen=True)
class RunSummary:
    """Aggregate over a batch of retrieval runs against one ground truth."""

    n_runs: int
    penalty_mean: float
    penalty_std: float
    twin_present_count: int
    twin_present_fraction: float
    per_run: list  # dicts: seed, final_penalty, c_up, c_twin, twin_present


def make_support(image_size: int, support_size: int) -> np.ndarray:
    """Centered square support mask; centro-symmetric by construction."""
    PhantomSpec(image_size=image_size, support_size=support_size)
    mask = np.zeros((image_size, image_size), dtype=bool)
    start = (image_size - support_size) // 2
    mask[start : start + support_size, start : start + support_size] = True
    return mask


def triangular_truncation(mask) -> np.ndarray:
    """Truncate a square support block to its lower-left right triangle.

    The triangle is bounded by the block's left edge, bottom edge and
    main diagonal (diagonal included), so an n x n block keeps
    n*(n+1)/2 pixels. The result is deliberately not centro-symmetric.
    """
    m = as_mask(mask)
    x0, y0, x1, y1 = bounding_box(m)
    n_x = x1 - x0 + 1
    n_y = y1 - y0 + 1
    block = np.zeros_like(m)
    block[y0 : y1 + 1, x0 : x1 + 1] = True
    if n_x != n_y or not np.array_equal(m, block):
        raise ValueError("mask must be a filled square block")
    rows, cols = np.indices((n_y, n_x))
    out = np.zeros_like(m)
    out[y0 : y1 + 1, x0 : x1 + 1] = cols <= rows
    return out


# Rejection-sampling budget of the phantom generators. About one draw in
# three is accepted (at most 44 draws over 2,400 seeds and sizes); on a
# 2-pixel support every draw is flat, so every draw is rejected.
MAX_PHANTOM_DRAWS = 500


def _xor_rectangles(rng, s: int) -> np.ndarray:
    """XOR of 14 random axis-aligned rectangles: letter-like two-level art."""
    # Capped at s so that a rectangle fits a 2-pixel support; the bounds
    # (and so every phantom) are unchanged for s >= 4.
    hi = min(s, max(3, s // 3))
    lo = min(hi, max(2, s // 10))
    levels = np.zeros((s, s), dtype=bool)
    for _ in range(14):
        w = int(rng.integers(lo, hi + 1))
        h = int(rng.integers(lo, hi + 1))
        x = int(rng.integers(0, s - w + 1))
        y = int(rng.integers(0, s - h + 1))
        levels[y : y + h, x : x + w] ^= True
    return levels


def _sample_distinct_block(draw, spec: PhantomSpec) -> np.ndarray:
    """Call draw() -> (levels, block) until the two-level pattern is
    roughly balanced and the block is clearly distinguishable from its own
    flip-conjugate, so that the twin correlation metric cannot misfire on
    a converged reconstruction. Raises SettingError after MAX_PHANTOM_DRAWS
    rejected draws: no draw can satisfy such a spec."""
    for _ in range(MAX_PHANTOM_DRAWS):
        levels, block = draw()
        self_twin = abs(np.sum(block * block[::-1, ::-1])) / levels.size
        if 0.30 <= levels.mean() <= 0.65 and self_twin < 0.30:
            return block
    raise SettingError(
        f"no {spec.kind} phantom distinguishable from its twin in {MAX_PHANTOM_DRAWS} draws "
        f"(support_size={spec.support_size}, pattern_seed={spec.pattern_seed})"
    )


def _embed(block, spec: PhantomSpec) -> np.ndarray:
    field = np.zeros((spec.image_size, spec.image_size), dtype=np.complex128)
    field[make_support(spec.image_size, spec.support_size)] = block.ravel()
    return field


def binary_phase_phantom(spec: PhantomSpec) -> np.ndarray:
    """Unit-amplitude object with a two-level {0, BINARY_PHASE_STEP} blocky phase."""
    if spec.kind != "binary":
        raise ValueError("spec.kind must be 'binary'")
    rng = np.random.default_rng(spec.pattern_seed)

    def draw():
        levels = _xor_rectangles(rng, spec.support_size)
        return levels, np.exp(1j * levels * BINARY_PHASE_STEP)

    return _embed(_sample_distinct_block(draw, spec), spec)


def gray_phase_phantom(spec: PhantomSpec) -> np.ndarray:
    """Unit-amplitude object whose phase mixes smooth low-frequency content
    with sharp-edged patches, rescaled to [0, GRAY_PHASE_RANGE] on the support."""
    if spec.kind != "gray":
        raise ValueError("spec.kind must be 'gray'")
    rng = np.random.default_rng(spec.pattern_seed)
    s = spec.support_size

    def draw():
        # sharp two-level base; without this bimodal backbone the phase
        # histogram is too concentrated and the object becomes
        # indistinguishable from its own flip-conjugate
        levels = _xor_rectangles(rng, s)
        # smooth low-frequency variation layered on top
        yy, xx = np.meshgrid(np.arange(s) / s, np.arange(s) / s, indexing="ij")
        smooth = np.zeros((s, s))
        for _ in range(6):
            fx, fy = rng.uniform(0.5, 3.0, size=2)
            amp = rng.uniform(0.4, 1.0)
            ph = rng.uniform(0.0, 2.0 * np.pi)
            smooth += amp * np.sin(2.0 * np.pi * (fx * xx + fy * yy) + ph)
        smooth = (smooth - smooth.min()) / (smooth.max() - smooth.min())
        phase = levels + 0.35 * smooth
        phase -= phase.min()
        phase *= GRAY_PHASE_RANGE / phase.max()
        return levels, np.exp(1j * phase)

    return _embed(_sample_distinct_block(draw, spec), spec)


def phantom(spec: PhantomSpec) -> np.ndarray:
    """The phantom of `spec`, from the generator of its kind. The generators
    are looked up as module globals, so a wrapper on either one sees the call."""
    if spec.kind == "binary":
        return binary_phase_phantom(spec)
    return gray_phase_phantom(spec)


def flip_conjugate(field) -> np.ndarray:
    """The twin image: conj(g(W-1-x, H-1-y)). Shares g's Fourier magnitude."""
    return np.conj(np.asarray(field)[::-1, ::-1])


def align_global_phase(recon, truth, mask) -> np.ndarray:
    """Remove the global phase offset of recon relative to truth over mask."""
    r = np.asarray(recon)
    t = np.asarray(truth)
    m = as_mask(mask)
    check_same_shape(r, t, m)
    overlap = np.sum(r[m] * np.conj(t[m]))
    if overlap == 0:
        raise ValueError("zero overlap between recon and truth on the mask")
    return r * np.exp(-1j * np.angle(overlap))


def twin_correlations(recon, truth, mask) -> TwinMetrics:
    """Normalized correlation magnitudes against truth and its twin.

    twin_present means BOTH correlations exceed TWIN_THRESHOLD, i.e. the
    reconstruction is a substantial superposition of the two twins.
    """
    r = np.asarray(recon)
    t = np.asarray(truth)
    m = as_mask(mask)
    check_same_shape(r, t, m)
    tw = flip_conjugate(t)
    r_norm = l2_norm(r[m])
    t_norm = l2_norm(t[m])
    tw_norm = l2_norm(tw[m])
    if r_norm == 0 or t_norm == 0 or tw_norm == 0:
        raise ValueError("degenerate norms in twin correlation")
    c_up = abs(np.sum(r[m] * np.conj(t[m]))) / (r_norm * t_norm)
    c_twin = abs(np.sum(r[m] * np.conj(tw[m]))) / (r_norm * tw_norm)
    return TwinMetrics(
        c_up=float(c_up),
        c_twin=float(c_twin),
        twin_present=bool(min(c_up, c_twin) > TWIN_THRESHOLD),
    )


def _wrap_phase(p):
    return np.angle(np.exp(1j * p))


def phase_rmse(recon, truth, mask) -> float:
    """RMS wrapped phase error over the mask, after global-phase alignment.

    Taken against whichever of {truth, twin(truth)} matches better, since
    both are equally valid solutions of the magnitude data.
    """
    errors = []
    for target in (np.asarray(truth), flip_conjugate(truth)):
        aligned = align_global_phase(recon, target, mask)
        m = as_mask(mask)
        d = _wrap_phase(np.angle(aligned[m]) - np.angle(target[m]))
        errors.append(float(np.sqrt(np.mean(d**2))))
    return min(errors)


def run_statistics(reports, truth, mask) -> RunSummary:
    """Mean/std of final in-support penalties and twin statistics for a batch.

    A run's final penalty is the last value of its penalty trace.
    """
    if not reports:
        raise ValueError("need at least one report")
    per_run = []
    penalties = []
    twin_count = 0
    for rep in reports:
        metrics = twin_correlations(rep.final_field, truth, mask)
        p = float(rep.penalty_trace[-1])
        penalties.append(p)
        twin_count += int(metrics.twin_present)
        per_run.append(
            {
                "seed": int(rep.seed),
                "final_penalty": p,
                "c_up": metrics.c_up,
                "c_twin": metrics.c_twin,
                "twin_present": metrics.twin_present,
            }
        )
    penalties = np.asarray(penalties)
    std = float(np.std(penalties, ddof=1)) if len(penalties) > 1 else 0.0
    return RunSummary(
        n_runs=len(per_run),
        penalty_mean=float(np.mean(penalties)),
        penalty_std=std,
        twin_present_count=twin_count,
        twin_present_fraction=twin_count / len(per_run),
        per_run=per_run,
    )
